package splitfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	kfs.CommitMeta() // the inode number is free once its free commits
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

// A truncation keeps U-Split's mappings (DESIGN.md, "Mapping lifetime"):
// it forgets only the windows that reach past the block holding the new
// end, releasing their tables without a munmap, which only unlink and a
// replacing rename charge.

// truncEnv is a U-Split instance with four-block mapping windows on a
// small device, so that a few windows make a file and the allocator
// soon comes back to the blocks a truncate frees.
func truncEnv(t *testing.T, mode Mode) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: sim.NewClock()})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, Config{Mode: mode, MmapBytes: truncWindow, StagingFiles: 2, StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

const truncWindow = 4 * sim.BlockSize

// mappedFile creates path holding windows whole windows of data salted
// by salt, relinked and mapped window by window, and returns it open.
func mappedFile(t *testing.T, fs *FS, path string, windows int, salt byte) *File {
	t.Helper()
	f, err := fs.OpenFile(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(windows*truncWindow, salt)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // the relink maps what it moved
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s reads back wrong: %v", path, err)
	}
	if n := fs.mmaps.count(f.(*File).of.ino); n != windows {
		t.Fatalf("test premise: %s has %d windows cached, want %d", path, n, windows)
	}
	return f.(*File)
}

// munmaps returns how many munmaps fn charged: the kernel-trap time it
// charged beyond its traps'.
func munmaps(t *testing.T, dev *pmem.Device, fs *FS, fn func() error) int64 {
	t.Helper()
	clk := dev.Clock()
	ns, traps := clk.Snapshot().ByCat[sim.CatKernelTrap], fs.kfs.Stats().Traps
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	ns = clk.Snapshot().ByCat[sim.CatKernelTrap] - ns - (fs.kfs.Stats().Traps-traps)*sim.KernelTrap.Fixed
	return ns / sim.Munmap.Fixed
}

// TestTruncationChargesNoMunmap: a truncating open — of a file with no
// open description, and of one with — and a shrinking Truncate forget a
// mapped file's windows without a munmap; an unlink and a rename onto
// the file still charge one per window.
func TestTruncationChargesNoMunmap(t *testing.T) {
	const windows = 3
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			dev, fs := truncEnv(t, mode)
			for _, tc := range []struct {
				name    string
				want    int64 // munmaps
				trigger func(f *File) error
			}{
				{"truncating open", 0, func(f *File) error {
					if err := f.Close(); err != nil {
						return err
					}
					g, err := fs.OpenFile("/a", vfs.O_RDWR|vfs.O_TRUNC, 0)
					if err == nil {
						err = g.Close()
					}
					return err
				}},
				{"truncating open beside a handle", 0, func(f *File) error {
					g, err := fs.OpenFile("/a", vfs.O_WRONLY|vfs.O_TRUNC, 0)
					if err == nil {
						err = errors.Join(g.Close(), f.Close())
					}
					return err
				}},
				{"shrinking Truncate", 0, func(f *File) error {
					return errors.Join(f.Truncate(sim.BlockSize), f.Close())
				}},
				{"unlink", windows, func(f *File) error { return errors.Join(f.Close(), fs.Unlink("/a")) }},
				{"rename onto the file", windows, func(f *File) error {
					if err := f.Close(); err != nil {
						return err
					}
					g, err := vfs.Create(fs, "/b")
					if err == nil {
						err = errors.Join(g.Close(), fs.Rename("/b", "/a"))
					}
					return err
				}},
			} {
				f := mappedFile(t, fs, "/a", windows, 1)
				ino := f.of.ino
				if n := munmaps(t, dev, fs, func() error { return tc.trigger(f) }); n != tc.want {
					t.Errorf("%s of a file mapped in %d windows charged %d munmaps, want %d", tc.name, windows, n, tc.want)
				}
				if n := fs.mmaps.count(ino); n >= windows {
					t.Errorf("%s left %d of %d windows cached", tc.name, n, windows)
				}
			}
		})
	}
}

// TestTruncateKeepsWindowsBelowItsEnd: a truncate that does not shrink
// the file keeps every window's mapping, and a shrink keeps those wholly
// below the block holding the new end — that block included — and
// forgets the rest. Each truncate is followed by a read of the file,
// which maps a forgotten window's remaining blocks afresh.
func TestTruncateKeepsWindowsBelowItsEnd(t *testing.T) {
	_, fs := truncEnv(t, POSIX)
	f := mappedFile(t, fs, "/a", 3, 1)
	mapped := func() (ms []*ext4dax.Mapping) {
		for idx := range int64(4) {
			ms = append(ms, fs.mmaps.regions[regionKey{f.of.ino, idx}])
		}
		return ms
	}
	for _, tc := range []struct {
		size int64
		kept int // leading windows still cached as before the truncate
	}{
		{3 * truncWindow, 3},
		{4 * truncWindow, 3},
		{2*truncWindow - 1, 2}, // the new end's block is window 1's last
		{truncWindow + 1, 1},
		{truncWindow + 1, 2}, // window 1, mapped again by the read, ends at the new end's block
		{0, 0},
	} {
		before := mapped()
		if err := f.Truncate(tc.size); err != nil {
			t.Fatal(err)
		}
		want := append(before[:tc.kept:tc.kept], make([]*ext4dax.Mapping, 4-tc.kept)...)
		if got := mapped(); !slices.Equal(got, want) {
			t.Fatalf("after a truncate to %d windows cached are %v, want %v", tc.size, got, want)
		}
		got := make([]byte, min(tc.size, 3*truncWindow))
		if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(3*truncWindow, 1)[:len(got)]) {
			t.Fatalf("after a truncate to %d the file reads wrong", tc.size)
		}
	}
}

// TestTruncatedBlocksStayOffTheFile: a block a truncate frees and another
// file then takes is never reached through the truncated file once it
// grows over the block again — its read sees the hole, not the other
// file's bytes, and its write leaves the other file's bytes alone.
func TestTruncatedBlocksStayOffTheFile(t *testing.T) {
	_, fs := truncEnv(t, POSIX)
	f := mappedFile(t, fs, "/a", 2, 1)
	freed, _, err := f.MapExtents(truncWindow, truncWindow)
	if err != nil || len(freed) == 0 {
		t.Fatalf("window 1 of /a: %v, %v", freed, err)
	}
	if err := f.Truncate(truncWindow); err != nil {
		t.Fatal(err)
	}
	fs.kfs.CommitMeta() // the freed blocks free at the commit
	// /b, written through K-Split, takes blocks until it holds one that
	// /a's window 1 held.
	b, err := fs.kfs.OpenFile("/b", vfs.O_RDWR|vfs.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte{0xbb}, truncWindow)
	taken := func() bool {
		exts, _, err := b.(vfs.Mappable).MapExtents(0, ext4dax.MaxFileSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exts {
			for _, x := range freed {
				if e.DevOff < x.DevOff+x.Length && x.DevOff < e.DevOff+e.Length {
					return true
				}
			}
		}
		return false
	}
	var bSize int64
	for !taken() {
		if _, err := b.WriteAt(other, bSize); err != nil {
			t.Fatalf("/b never took a block /a's truncate freed: %v", err)
		}
		bSize += truncWindow
	}
	if err := f.Truncate(2 * truncWindow); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, truncWindow)
	if _, err := f.ReadAt(got, truncWindow); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, truncWindow)) {
		t.Errorf("/a's regrown window reads %x..., want the hole's zeros", got[:8])
	}
	if _, err := f.WriteAt(pattern(truncWindow, 2), truncWindow); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, truncWindow); err != nil || !bytes.Equal(got, pattern(truncWindow, 2)) {
		t.Errorf("/a's regrown window reads back wrong: %v", err)
	}
	all := make([]byte, bSize)
	if _, err := b.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, bytes.Repeat([]byte{0xbb}, int(bSize))) {
		t.Error("a write to /a's regrown window changed /b")
	}
}
