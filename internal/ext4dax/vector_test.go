package ext4dax

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"splitfs/internal/alloc"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Tests of the relink ioctl as a vector (DESIGN.md, "Relink is a move",
// part 4): validated whole before anything moves, and equal to its moves
// made one call each.

// vectorImage is a small file system with a 32-block /dst and nsrc
// preallocated sources of srcBlocks blocks, everything committed: the same
// image, block for block, every time it is built.
func vectorImage(t *testing.T, nsrc int, srcBlocks int64) (*pmem.Device, *FS, *File, []*File) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 8 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{JournalBlocks: 64, MaxInodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := vfs.Create(fs, "/dst")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Write(bytes.Repeat([]byte{0xD5}, 32*sim.BlockSize)); err != nil {
		t.Fatal(err)
	}
	var srcs []*File
	for i := 0; i < nsrc; i++ {
		src, err := vfs.Create(fs, fmt.Sprintf("/src%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := src.(*File).Preallocate(srcBlocks, 0); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src.(*File))
	}
	fs.CommitMeta()
	return dev, fs, dst.(*File), srcs
}

// inodeState is what a relink may change of one inode.
type inodeState struct {
	extents      alloc.ExtentMap
	blocks, size int64
	epoch        uint64
}

// vectorState is everything a relink call may change, short of the device.
type vectorState struct {
	inodes []inodeState
	bitmap []bool
	frees  []alloc.Extent
	noted  int
}

func snapshot(fs *FS, files ...*File) vectorState {
	st := vectorState{noted: fs.noted()}
	for _, pf := range fs.pendingFrees {
		st.frees = append(st.frees, pf.e)
	}
	for _, f := range files {
		st.inodes = append(st.inodes, inodeState{slices.Clone(f.in.extents), f.in.blocks, f.in.size, f.in.mapEpoch.Load()})
	}
	for b := int64(0); b < fs.lay.DataBlocks; b++ {
		st.bitmap = append(st.bitmap, fs.bBmp.First(b, b+1, true) == b)
	}
	return st
}

func (a vectorState) equal(b vectorState, epochs bool) bool {
	same := func(x, y inodeState) bool {
		return slices.Equal(x.extents, y.extents) && x.blocks == y.blocks && x.size == y.size && (!epochs || x.epoch == y.epoch)
	}
	return slices.EqualFunc(a.inodes, b.inodes, same) && slices.Equal(a.bitmap, b.bitmap) &&
		slices.Equal(a.frees, b.frees) && a.noted == b.noted
}

// TestRejectedVectorIsNoOp: one bad move among good ones rejects the whole
// vector before anything moved — extent maps, block counts, sizes, map
// epochs, the bitmap, the deferred frees and the transaction's noted
// ranges are as they were, through the batch's End, and the image checks.
// (Moved one call per piece, the good moves ahead of the bad one were
// applied, written back by End and committed by whoever came next.)
func TestRejectedVectorIsNoOp(t *testing.T) {
	const blk = sim.BlockSize
	_, fs, dst, srcs := vectorImage(t, 2, 64)
	a, b := srcs[0], srcs[1]
	good := []Move{
		{Src: a, SrcOff: 0, DstOff: 4 * blk, Len: 2 * blk},    // over blocks dst holds: a deferred free
		{Src: b, SrcOff: 8 * blk, DstOff: 40 * blk, Len: blk}, // past EOF
		{Src: a, SrcOff: 16 * blk, DstOff: 10 * blk, Len: 3 * blk},
	}
	for _, tc := range []struct {
		name string
		bad  Move
	}{
		{"unaligned source offset", Move{Src: b, SrcOff: 100, DstOff: 20 * blk, Len: blk}},
		{"unaligned destination offset", Move{Src: b, SrcOff: 0, DstOff: 20*blk + 1, Len: blk}},
		{"unaligned length", Move{Src: b, SrcOff: 0, DstOff: 20 * blk, Len: blk / 2}},
		{"empty move", Move{Src: b, SrcOff: 0, DstOff: 20 * blk}},
		{"hole in the source", Move{Src: b, SrcOff: 63 * blk, DstOff: 20 * blk, Len: 2 * blk}},
		{"destination on both sides", Move{Src: dst, SrcOff: 0, DstOff: 20 * blk, Len: blk}},
		{"destination ranges overlap", Move{Src: b, SrcOff: 0, DstOff: 12 * blk, Len: 2 * blk}},
		{"source ranges overlap", Move{Src: a, SrcOff: 18 * blk, DstOff: 20 * blk, Len: 2 * blk}},
	} {
		for at := range len(good) + 1 { // the bad move first, in between, last
			before := snapshot(fs, dst, a, b)
			vector := slices.Insert(slices.Clone(good), at, tc.bad)
			batch := beginRelink(t, fs, dst, vector...)
			err := batch.Relink(dst, 41*blk, vector)
			batch.End()
			if !errors.Is(err, vfs.ErrInval) {
				t.Fatalf("%s at %d: err = %v, want ErrInval", tc.name, at, err)
			}
			if !snapshot(fs, dst, a, b).equal(before, true) {
				t.Fatalf("%s at %d: the rejected vector changed something", tc.name, at)
			}
		}
	}
	fs.CommitMeta()
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	// And the good moves alone go through.
	batch := beginRelink(t, fs, dst, good...)
	if err := batch.Relink(dst, 41*blk, good); err != nil {
		t.Fatal(err)
	}
	fs.CommitUpTo(pmem.SrcForeground, batch.End())
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if info, _ := dst.Stat(); info.Size != 41*blk || info.Blocks != 33 || fs.FreeBlocks() == 0 {
		t.Fatalf("after the good vector: size %d, %d blocks", info.Size, info.Blocks)
	}
}

// TestVectorEqualsSequence: a random valid vector applied by one call
// leaves what its moves leave applied one call each on a twin image — the
// same extent maps, sizes, block counts, bitmap, deferred frees and count
// of journal-noted ranges when the batch closes, and, once committed, the
// same device image outside the journal (so the same bytes noted) from the
// same number of journaled blocks. Many moves out of one source reach the
// extent-overflow leaves (some seeds must); few out of three keep every
// inode inline, where the order End writes the inodes back in — sources
// then destination, not interleaved — places no leaf differently.
func TestVectorEqualsSequence(t *testing.T) {
	// Room for a vector of up to 2*InlineExtents moves of one to three
	// blocks with gaps: that fragments the destination, or the source,
	// past the record's inline extents.
	const span, srcBlocks = 6 * InlineExtents, 6 * InlineExtents
	leafy := 0
	for seed := uint64(1); seed <= 24; seed++ {
		rng := sim.NewRNG(seed)
		nsrc, nmoves := 1, 4+rng.Intn(2*InlineExtents)
		if seed%2 == 0 {
			nsrc, nmoves = 3, 2+rng.Intn(4)
		}
		// Disjoint runs of the destination's first span blocks (32 held,
		// the rest past EOF), each sourced from a file's next blocks,
		// shuffled.
		var moves []Move
		cursor := make([]int64, nsrc)
		type twin struct {
			dev  *pmem.Device
			fs   *FS
			dst  *File
			srcs []*File
		}
		var tw [2]twin
		for i := range tw {
			tw[i].dev, tw[i].fs, tw[i].dst, tw[i].srcs = vectorImage(t, nsrc, srcBlocks)
		}
		picks := make([]int, 0, nmoves) // the source each move reads
		for blk := int64(rng.Intn(3)); blk < span && len(moves) < nmoves; {
			n, s := int64(1+rng.Intn(3)), rng.Intn(nsrc)
			cursor[s] += int64(rng.Intn(2)) // sometimes leave a gap, so the source splits
			if cursor[s]+n > srcBlocks {
				break
			}
			moves = append(moves, Move{SrcOff: cursor[s] * sim.BlockSize, DstOff: blk * sim.BlockSize, Len: n * sim.BlockSize})
			picks = append(picks, s)
			cursor[s] += n
			blk += n + int64(rng.Intn(3))
		}
		for i := len(moves) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			moves[i], moves[j] = moves[j], moves[i]
			picks[i], picks[j] = picks[j], picks[i]
		}
		last := slices.MaxFunc(moves, func(a, b Move) int { return cmp.Compare(a.DstOff, b.DstOff) })
		newSize := (last.DstOff + last.Len - 100) * int64(rng.Intn(2)) // grown to mid-block, or not at all
		var states [2]vectorState
		for i, w := range tw {
			mine := slices.Clone(moves)
			for k := range mine {
				mine[k].Src = w.srcs[picks[k]]
			}
			batch := beginRelink(t, w.fs, w.dst, mine...)
			if i == 0 {
				if err := batch.Relink(w.dst, newSize, mine); err != nil {
					t.Fatalf("seed %d: vector of %d: %v", seed, len(mine), err)
				}
			} else {
				for _, m := range mine {
					if err := batch.Relink(w.dst, newSize, []Move{m}); err != nil {
						t.Fatalf("seed %d: single move %+v: %v", seed, m, err)
					}
				}
			}
			txid := batch.End()
			if i == 0 && (len(w.dst.in.overflow) > 0 || len(w.srcs[0].in.overflow) > 0) {
				if nsrc > 1 {
					t.Fatalf("seed %d: a vector out of %d sources reached a leaf", seed, nsrc)
				}
				leafy++
			}
			states[i] = snapshot(w.fs, append([]*File{w.dst}, w.srcs...)...)
			w.fs.CommitUpTo(pmem.SrcForeground, txid)
			if _, err := w.fs.Check(); err != nil {
				t.Fatalf("seed %d, image %d: %v", seed, i, err)
			}
		}
		if !states[0].equal(states[1], false) { // a vector is one remap event, its moves several
			t.Fatalf("seed %d: %d moves from %d sources differ from their sequence:\nvector   %+v\nsequence %+v",
				seed, len(moves), nsrc, states[0].inodes, states[1].inodes)
		}
		if a, b := tw[0].fs.jnl.Stats().BlocksLogged, tw[1].fs.jnl.Stats().BlocksLogged; a != b {
			t.Fatalf("seed %d: the vector journaled %d blocks, the sequence %d", seed, a, b)
		}
		lay := tw[0].fs.lay
		jend := lay.JournalOff + lay.JournalBlocks*sim.BlockSize
		var img [2][]byte
		for i, w := range tw {
			img[i] = make([]byte, w.dev.Size())
			w.dev.Peek(img[i], 0)
		}
		if !bytes.Equal(img[0][:lay.JournalOff], img[1][:lay.JournalOff]) || !bytes.Equal(img[0][jend:], img[1][jend:]) {
			t.Fatalf("seed %d: device images differ outside the journal", seed)
		}
	}
	if leafy < 4 {
		t.Fatalf("%d seeds fragmented a file past its %d inline extents, want at least 4", leafy, InlineExtents)
	}
}
