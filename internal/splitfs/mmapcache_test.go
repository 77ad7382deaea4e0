package splitfs

import (
	"testing"

	"splitfs/internal/ext4dax"
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
	m := fs.mmaps.regions[of.ino][0]
	if m == nil || m.Length() != blocks*sim.BlockSize {
		t.Fatalf("region 0 of /wr is not mapped whole after its relinks: %v", m)
	}
	next := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		fs.mmaps.refresh(of, next%blocks*sim.BlockSize, sim.BlockSize, true)
		next += 7
	})
	if allocs != 0 || fs.mmaps.regions[of.ino][0] != m {
		t.Fatalf("refreshing one block of an unchanged region allocates %.0f times (same mapping: %v), want 0",
			allocs, fs.mmaps.regions[of.ino][0] == m)
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
		m := fs.mmaps.regions[of.ino][0]
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
