package ext4dax

import (
	"bytes"
	"testing"
	"testing/quick"

	"splitfs/internal/alloc"
	"splitfs/internal/sim"
)

func ext(logical, start, length int64) fileExtent {
	return fileExtent{Logical: logical, Phys: alloc.Extent{Start: start, Len: length}}
}

func TestAppendFileExtentMerges(t *testing.T) {
	in := &inode{}
	in.extents.Insert(in.extents.End(), alloc.Extent{Start: 10, Len: 2})
	in.extents.Insert(in.extents.End(), alloc.Extent{Start: 12, Len: 3}) // contiguous: merge
	if len(in.extents) != 1 || in.extents[0].Phys.Len != 5 {
		t.Fatalf("extents = %+v", in.extents)
	}
	in.extents.Insert(in.extents.End(), alloc.Extent{Start: 20, Len: 1}) // gap: new extent
	if len(in.extents) != 2 || in.extents[1].Logical != 5 {
		t.Fatalf("extents = %+v", in.extents)
	}
}

func TestInsertFileExtentOrdersAndMerges(t *testing.T) {
	in := &inode{}
	in.extents.Insert(4, alloc.Extent{Start: 104, Len: 2})
	in.extents.Insert(0, alloc.Extent{Start: 100, Len: 2})
	in.extents.Insert(2, alloc.Extent{Start: 102, Len: 2}) // bridges: full merge
	if len(in.extents) != 1 {
		t.Fatalf("extents = %+v", in.extents)
	}
	if in.extents[0].Logical != 0 || in.extents[0].Phys.Len != 6 {
		t.Fatalf("merged = %+v", in.extents[0])
	}
}

func TestTruncateExtentsSplits(t *testing.T) {
	in := &inode{extents: []fileExtent{ext(0, 100, 10)}}
	freed := in.extents.Truncate(nil, 4)
	if len(freed) != 1 || freed[0].Start != 104 || freed[0].Len != 6 {
		t.Fatalf("freed = %+v", freed)
	}
	if len(in.extents) != 1 || in.extents[0].Phys.Len != 4 {
		t.Fatalf("kept = %+v", in.extents)
	}
	// Truncate to zero frees everything.
	freed = in.extents.Truncate(nil, 0)
	if len(freed) != 1 || freed[0].Len != 4 || len(in.extents) != 0 {
		t.Fatalf("freed = %+v kept = %+v", freed, in.extents)
	}
}

func TestExtractExtentsMiddle(t *testing.T) {
	in := &inode{extents: []fileExtent{ext(0, 100, 10)}}
	removed := in.extents.Extract(nil, 3, 4)
	if len(removed) != 1 || removed[0].Start != 103 || removed[0].Len != 4 {
		t.Fatalf("removed = %+v", removed)
	}
	if len(in.extents) != 2 {
		t.Fatalf("kept = %+v", in.extents)
	}
	if in.extents[0].Phys.Len != 3 || in.extents[1].Logical != 7 ||
		in.extents[1].Phys.Start != 107 {
		t.Fatalf("split wrong: %+v", in.extents)
	}
}

func TestExtractExtentsAcrossMultiple(t *testing.T) {
	in := &inode{extents: []fileExtent{ext(0, 100, 4), ext(4, 200, 4), ext(8, 300, 4)}}
	removed := in.extents.Extract(nil, 2, 8) // spans all three
	total := int64(0)
	for _, e := range removed {
		total += e.Len
	}
	if total != 8 {
		t.Fatalf("removed %d blocks, want 8: %+v", total, removed)
	}
	if len(in.extents) != 2 {
		t.Fatalf("kept = %+v", in.extents)
	}
}

// Property: extract + place back at the same position restores the
// mapping exactly.
func TestExtractPlaceRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		in := &inode{}
		logical := int64(0)
		for i := 0; i < 6; i++ {
			length := int64(rng.Intn(5) + 1)
			in.extents.Insert(logical, alloc.Extent{
				Start: int64(1000*i + rng.Intn(100)), Len: length})
			logical += length + int64(rng.Intn(3)) // maybe holes
		}
		orig := append([]fileExtent(nil), in.extents...)
		from := int64(rng.Intn(int(logical)))
		count := int64(rng.Intn(int(logical-from)) + 1)
		removed := in.extents.Extract(nil, from, count)
		// Re-place piece by piece at their original logical positions.
		place := from
		for _, e := range removed {
			// Skip holes: find where this piece belongs by walking the
			// original mapping.
			for {
				if devBlockAt(orig, place) == e.Start {
					break
				}
				place++
			}
			in.extents.Insert(place, e)
			place += e.Len
		}
		if len(in.extents) != len(orig) {
			return false
		}
		for i := range orig {
			if in.extents[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// devBlockAt returns the physical block at a logical position in an
// extent list, or -1 for holes.
func devBlockAt(exts []fileExtent, logical int64) int64 {
	for _, e := range exts {
		if logical >= e.Logical && logical < e.LogicalEnd() {
			return e.Phys.Start + (logical - e.Logical)
		}
	}
	return -1
}

func TestInodeEncodeDecodeRoundTrip(t *testing.T) {
	in := &inode{ino: 42, isDir: false, nlink: 2, size: 123456, blocks: 31, uwm: 77}
	for i := int64(0); i < 10; i++ {
		in.extents = append(in.extents, ext(i*4, 1000+i*8, 2))
	}
	rec := bytes.Repeat([]byte{0xFF}, inodeSize) // encode must not depend on what the scratch held
	in.encode(rec)
	out, next, err := decodeInode(42, rec)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Fatalf("unexpected overflow pointer %d", next)
	}
	if out.size != in.size || out.blocks != in.blocks || out.nlink != in.nlink ||
		out.uwm != 77 || len(out.extents) != 10 {
		t.Fatalf("decoded = %+v", out)
	}
	for i := range in.extents {
		if out.extents[i] != in.extents[i] {
			t.Fatalf("extent %d: %+v vs %+v", i, out.extents[i], in.extents[i])
		}
	}
	// Corrupt magic must be rejected.
	rec[0] ^= 0xFF
	if _, _, err := decodeInode(42, rec); err == nil {
		t.Fatal("corrupt inode accepted")
	}
}

func TestLayoutComputation(t *testing.T) {
	l, err := computeLayout(64<<20, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Regions must be ordered and non-overlapping.
	if !(l.SuperOff < l.JournalOff && l.JournalOff < l.InodeBmpOff &&
		l.InodeBmpOff < l.InodeTblOff && l.InodeTblOff < l.BlockBmpOff &&
		l.BlockBmpOff < l.DataOff) {
		t.Fatalf("layout disordered: %+v", l)
	}
	if l.DataOff+l.DataBlocks*sim.BlockSize > 64<<20 {
		t.Fatal("data region exceeds device")
	}
	if l.DataBlocks*sim.BlockSize < 48<<20 {
		t.Fatalf("data region too small: %d blocks", l.DataBlocks)
	}
	// Too-small devices are rejected.
	if _, err := computeLayout(300<<10, 64, 1024); err == nil {
		t.Fatal("tiny device accepted")
	}
}
