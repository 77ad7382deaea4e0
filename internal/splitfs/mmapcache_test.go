package splitfs

import (
	"fmt"
	"slices"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// The collection of mmaps after a relink (DESIGN.md, "Extent maps and
// mappings are edited in place"): a refresh edits the cached mapping's
// page table under the moved range; only a change of shape builds a new
// one.

// TestRefreshAllocatesNothing: every fsync of staged data refreshes the
// target's mappings, and garbage from a benchmark's timed phase is never
// collected before its peak RSS is read, so a refresh that changes no
// mapping's shape must not allocate — in a region of many extents least
// of all. Rebuilding the region's mapping allocated a run per extent.
func TestRefreshAllocatesNothing(t *testing.T) {
	_, fs := newEnv(t, Strict)
	f, err := fs.OpenFile("/wr", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 128
	blk := make([]byte, sim.BlockSize)
	for i := range int64(blocks) { // one fsync a block: the region's extents do not merge
		if _, err := f.WriteAt(blk, (blocks-1-i)*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	of := f.(*File).of
	m := fs.mmaps.regions[regionKey{of.ino, 0}]
	if m == nil || m.Length() != blocks*sim.BlockSize {
		t.Fatalf("region 0 of /wr is not mapped whole after its relinks: %v", m)
	}
	next := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		fs.mmaps.refresh(of, next%blocks*sim.BlockSize, sim.BlockSize, true)
		next += 7
	})
	if allocs != 0 || fs.mmaps.regions[regionKey{of.ino, 0}] != m {
		t.Fatalf("refreshing one block of an unchanged region allocates %.0f times (same mapping: %v), want 0",
			allocs, fs.mmaps.regions[regionKey{of.ino, 0}] == m)
	}
}

// TestGrowingRegionRebuildsLogarithmically: a file that grows by a block
// at every fsync — a log — must not pay a new page table per fsync
// either: entries are appended in place and the table's capacity doubles,
// so 512 appends into one region build O(log 512) tables.
func TestGrowingRegionRebuildsLogarithmically(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, err := fs.OpenFile("/log", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	of := f.(*File).of
	blk := make([]byte, sim.BlockSize)
	var last *ext4dax.Mapping
	tables := 0
	for i := range fs.cfg.MmapBytes / sim.BlockSize {
		if _, err := f.WriteAt(blk, i*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		m := fs.mmaps.regions[regionKey{of.ino, 0}]
		if m == nil || m.Length() != (i+1)*sim.BlockSize {
			t.Fatalf("after %d appends region 0 maps %v", i+1, m)
		}
		if m != last {
			tables++
			last = m
		}
	}
	// 1, 2, 4, ... 512 entries: ten tables — and an eleventh, of one entry,
	// when the blocks came out of one staging file in order and the full
	// region is a single aligned run: huge pages gained.
	if tables > 11 {
		t.Fatalf("512 one-block appends built %d page tables, want <= 11", tables)
	}
	want := int64(160 + 512*8) // per mapping, and 8 bytes a page
	if last.Huge {
		want = 160 + 8
	}
	if got := fs.mmaps.memoryUsage(); got != want {
		t.Fatalf("the mmap collection charges %d bytes for one full region (huge: %v), want %d", got, last.Huge, want)
	}
}

// TestDropForgetsEveryRegion: the collection of mmaps is one table for
// every inode, keyed by (inode, region), and drop and count find an
// inode's regions through its bound. A file mapped in regions 0 and 3,
// with none cached between, loses both to drop; count agrees with the
// table before and after; and the inode number, recycled after the
// unlink, starts with no region — a region drop missed would map the new
// file onto the old one's blocks.
func TestDropForgetsEveryRegion(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const region = 4 * sim.BlockSize
	fs, err := New(kfs, Config{MmapBytes: region, StagingFiles: 2, StagingFileBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/sparse", vfs.O_RDWR|vfs.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Region 0 whole and the first block of region 3: regions 1 and 2 are
	// a hole, which nothing maps.
	for _, w := range []struct{ off, n int64 }{{0, region}, {3 * region, sim.BlockSize}} {
		if _, err := f.WriteAt(make([]byte, w.n), w.off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil { // the relink maps what it moved
		t.Fatal(err)
	}
	ino := f.(*File).of.ino
	regions := func() (idx []int64) {
		for k := range fs.mmaps.regions {
			if k.ino == ino {
				idx = append(idx, k.idx)
			}
		}
		slices.Sort(idx)
		return idx
	}
	if got := regions(); !slices.Equal(got, []int64{0, 3}) || fs.mmaps.count(ino) != 2 {
		t.Fatalf("regions %v cached, count %d; want [0 3], 2", got, fs.mmaps.count(ino))
	}
	if n := fs.mmaps.drop(ino); n != 2 {
		t.Fatalf("drop tore down %d mappings, want 2", n)
	}
	if got := regions(); len(got) != 0 || fs.mmaps.count(ino) != 0 {
		t.Fatalf("after drop regions %v are cached, count %d", got, fs.mmaps.count(ino))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/sparse"); err != nil {
		t.Fatal(err)
	}
	if err := kfs.CommitMeta(); err != nil { // the inode number is free once its free commits
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i == 64 {
			t.Fatal("inode number never recycled; test environment changed?")
		}
		p := fmt.Sprintf("/next%02d", i)
		g, err := fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		recycled := g.(*File).of.ino == ino
		if recycled && (len(regions()) != 0 || fs.mmaps.count(ino) != 0) {
			t.Fatalf("recycled inode %d starts with regions %v", ino, regions())
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if recycled {
			return
		}
	}
}
