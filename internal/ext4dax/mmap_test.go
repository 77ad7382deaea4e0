package ext4dax

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func TestMmapLoadStore(t *testing.T) {
	dev, fs := newFS(t)
	f, _ := vfs.Create(fs, "/m")
	want := bytes.Repeat([]byte("abcd"), sim.BlockSize) // 16 KB
	f.Write(want)
	f.Sync()

	m, err := fs.Mmap(f.(*File), 0, int64(len(want)), MmapOptions{Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n := m.Load(got, 0); n != len(want) {
		t.Fatalf("Load = %d", n)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mmap read mismatch")
	}

	// Store through the mapping; visible via read() and durable after
	// fence.
	traps := fs.Stats().Traps
	m.StoreNT(pmem.SrcForeground, []byte("ZZZZ"), 8)
	fs.Device().Fence()
	if fs.Stats().Traps != traps {
		t.Fatal("mmap store trapped into the kernel")
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := vfs.ReadFile(fs2, "/m")
	if string(data[8:12]) != "ZZZZ" {
		t.Fatalf("mmap store lost: %q", data[8:12])
	}
}

func TestMmapClampsToAllocation(t *testing.T) {
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/small")
	f.Write(make([]byte, 100)) // one block allocated
	m, err := fs.Mmap(f.(*File), 0, 2<<20, MmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Length() != sim.BlockSize {
		t.Fatalf("mapping length = %d, want one block", m.Length())
	}
	// Mapping an offset past allocation fails.
	if _, err := fs.Mmap(f.(*File), 4096, 4096, MmapOptions{}); err == nil {
		t.Fatal("mmap past allocation succeeded")
	}
}

func TestMmapFirstTouchFaults(t *testing.T) {
	dev, fs := newFS(t)
	f, _ := vfs.Create(fs, "/ft")
	f.Write(make([]byte, 4*sim.BlockSize))
	clk := dev.Clock()

	m, _ := fs.Mmap(f.(*File), 0, 4*sim.BlockSize, MmapOptions{})
	before := clk.Snapshot().ByCat[sim.CatPageFault]
	buf := make([]byte, 10)
	m.Load(buf, 0) // first touch of page 0
	afterFirst := clk.Snapshot().ByCat[sim.CatPageFault]
	if afterFirst-before != sim.PageFault4K.Cost(1) {
		t.Fatalf("first touch charged %d, want %d", afterFirst-before, sim.PageFault4K.Cost(1))
	}
	m.Load(buf, 16) // same page: no new fault
	if clk.Snapshot().ByCat[sim.CatPageFault] != afterFirst {
		t.Fatal("second touch of same page faulted again")
	}
}

func TestMmapPopulateChargesUpFront(t *testing.T) {
	dev, fs := newFS(t)
	f, _ := vfs.Create(fs, "/pop")
	f.Write(make([]byte, 8*sim.BlockSize))
	clk := dev.Clock()
	before := clk.Snapshot().ByCat[sim.CatPageFault]
	m, _ := fs.Mmap(f.(*File), 0, 8*sim.BlockSize, MmapOptions{Populate: true})
	if got := clk.Snapshot().ByCat[sim.CatPageFault] - before; got != 8*sim.PageFault4K.Cost(1) {
		t.Fatalf("populate charged %d, want %d", got, 8*sim.PageFault4K.Cost(1))
	}
	buf := make([]byte, 10)
	m.Load(buf, 0)
	if clk.Snapshot().ByCat[sim.CatPageFault] != before+8*sim.PageFault4K.Cost(1) {
		t.Fatal("populated mapping faulted on access")
	}
}

// TestHugePageRequiresAlignment pins both directions of §4's "huge pages
// are fragile": a mapping is huge exactly when file offset, length and
// backing extent are all 2 MB-aligned, and population is charged per page
// of the size granted.
func TestHugePageRequiresAlignment(t *testing.T) {
	dev, fs := newFS(t)
	clk := dev.Clock()
	const fileBytes = 4 << 20
	mmap := func(f vfs.File, off, length int64, huge bool) (*Mapping, int64) {
		t.Helper()
		before := clk.Snapshot().ByCat[sim.CatPageFault]
		m, err := fs.Mmap(f.(*File), off, length, MmapOptions{Populate: true, Huge: huge})
		if err != nil {
			t.Fatal(err)
		}
		return m, clk.Snapshot().ByCat[sim.CatPageFault] - before
	}

	// Next-fit allocation starts at the bottom of the data region, which
	// the layout puts at no 2 MB boundary: contiguous, but not huge.
	plain, _ := vfs.Create(fs, "/plain")
	if err := plain.(*File).Preallocate(fileBytes/sim.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	m, charged := mmap(plain, 0, fileBytes, true)
	if devOff, contig, _ := m.Translate(0, fileBytes); devOff%HugePageSize == 0 || contig != fileBytes {
		t.Fatalf("test premise: unaligned contiguous extent, got offset %d, %d contiguous", devOff, contig)
	}
	if m.Huge || m.PageSize() != sim.BlockSize {
		t.Fatalf("unaligned extent mapped huge (page size %d)", m.PageSize())
	}
	if want := int64(fileBytes / sim.BlockSize * sim.PageFault4K.Cost(1)); charged != want {
		t.Fatalf("4 KB population charged %d, want %d", charged, want)
	}
	buf := make([]byte, 64)
	if n := m.Load(buf, 1<<20); n != 64 {
		t.Fatalf("Load through 4 KB mapping = %d", n)
	}

	// An aligned pre-allocation is granted huge pages, charged per 2 MB.
	aligned, _ := vfs.Create(fs, "/aligned")
	if err := aligned.(*File).Preallocate(fileBytes/sim.BlockSize, HugePageSize); err != nil {
		t.Fatal(err)
	}
	m, charged = mmap(aligned, 0, fileBytes, true)
	if devOff, contig, _ := m.Translate(0, fileBytes); devOff%HugePageSize != 0 || contig != fileBytes {
		t.Fatalf("aligned pre-allocation at offset %d, %d contiguous", devOff, contig)
	}
	if !m.Huge || m.PageSize() != HugePageSize {
		t.Fatalf("aligned extent not mapped huge (page size %d)", m.PageSize())
	}
	if want := int64(fileBytes / HugePageSize * sim.PageFault2M.Cost(1)); charged != want {
		t.Fatalf("2 MB population charged %d, want %d", charged, want)
	}
	if n := m.Load(buf, 1<<20); n != 64 {
		t.Fatalf("Load through huge mapping = %d", n)
	}

	// Over the same aligned extent: not asked for, an unaligned length and
	// an unaligned file offset are all 4 KB mappings.
	if m, _ := mmap(aligned, 0, fileBytes, false); m.Huge {
		t.Fatal("huge pages granted without being requested")
	}
	if m, _ := mmap(aligned, 0, HugePageSize+sim.BlockSize, true); m.Huge {
		t.Fatal("unaligned length granted huge pages")
	}
	if m, _ := mmap(aligned, sim.BlockSize, HugePageSize, true); m.Huge {
		t.Fatal("unaligned file offset granted huge pages")
	}
}

func TestRelinkMovesBlocksWithoutCopy(t *testing.T) {
	dev, fs := newFS(t)
	// Staging file with data; target file initially empty.
	staging, _ := vfs.Create(fs, "/staging")
	staging.(*File).Preallocate(8, 0)
	payload := bytes.Repeat([]byte("R"), 2*sim.BlockSize)
	staging.WriteAt(payload, 0)
	target, _ := vfs.Create(fs, "/target")

	fs.CommitMeta()
	dataBefore := dev.Stats().BytesWrittenNT
	allocBefore := dev.Clock().Snapshot().ByCat[sim.CatAlloc]
	loggedBefore := fs.jnl.Stats().BlocksLogged
	free := fs.FreeBlocks()

	err := fs.Relink(staging.(*File), target.(*File), 0, 0,
		2*sim.BlockSize, 2*sim.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	// Filling a hole is a pure move: nothing allocated, nothing freed, so
	// the block bitmap stays out of the transaction — it logs the inode
	// table block(s) of the two files and nothing else.
	if got := dev.Clock().Snapshot().ByCat[sim.CatAlloc] - allocBefore; got != 0 {
		t.Fatalf("relink into a hole charged %d ns of allocation", got)
	}
	if fs.FreeBlocks() != free {
		t.Fatalf("relink into a hole moved the free count %d -> %d", free, fs.FreeBlocks())
	}
	if got := fs.jnl.Stats().BlocksLogged - loggedBefore; got > 2 {
		t.Fatalf("relink into a hole journaled %d blocks, want the inode table's at most 2", got)
	}
	// Relink is metadata-only: no file data rewritten. Journal blocks are
	// NT writes too, so allow only journal-sized growth (desc + images +
	// commit + superblock), not the 2 data blocks.
	ntGrowth := dev.Stats().BytesWrittenNT - dataBefore
	if ntGrowth > 8*sim.BlockSize {
		t.Fatalf("relink wrote %d bytes NT; data was copied", ntGrowth)
	}
	got, err := vfs.ReadFile(fs, "/target")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("target content wrong after relink")
	}
	// Staging range was punched out.
	info, _ := staging.Stat()
	if info.Blocks != 6 {
		t.Fatalf("staging blocks = %d, want 6", info.Blocks)
	}
	// Atomic: crash after relink keeps the target intact.
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fs2, "/target")
	if !bytes.Equal(got, payload) {
		t.Fatal("relink not durable after crash")
	}
}

func TestRelinkIntoMiddleReplacesBlocks(t *testing.T) {
	dev, fs := newFS(t)
	target, _ := vfs.Create(fs, "/t")
	old := bytes.Repeat([]byte("o"), 4*sim.BlockSize)
	target.Write(old)
	staging, _ := vfs.Create(fs, "/s")
	staging.(*File).Preallocate(4, 0)
	fresh := bytes.Repeat([]byte("n"), sim.BlockSize)
	staging.WriteAt(fresh, 0)

	free := fs.FreeBlocks()
	// Replace target block 1 with staging block 0 (a strict-mode
	// overwrite relink).
	if err := fs.Relink(staging.(*File), target.(*File),
		0, sim.BlockSize, sim.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	// Net space: staging lost 1 block, target gained then freed its old
	// block; total free goes up by one.
	if fs.FreeBlocks() != free+1 {
		t.Fatalf("free = %d, want %d", fs.FreeBlocks(), free+1)
	}
	got, _ := vfs.ReadFile(fs, "/t")
	if !bytes.Equal(got[:sim.BlockSize], old[:sim.BlockSize]) {
		t.Fatal("block 0 damaged")
	}
	if !bytes.Equal(got[sim.BlockSize:2*sim.BlockSize], fresh) {
		t.Fatal("block 1 not replaced")
	}
	if !bytes.Equal(got[2*sim.BlockSize:], old[2*sim.BlockSize:]) {
		t.Fatal("tail damaged")
	}
	_ = dev
}

func TestMappingSurvivesRelink(t *testing.T) {
	_, fs := newFS(t)
	staging, _ := vfs.Create(fs, "/stg")
	staging.(*File).Preallocate(4, 0)
	payload := bytes.Repeat([]byte("M"), sim.BlockSize)
	staging.WriteAt(payload, 0)
	// Map the staging region BEFORE relinking, as U-Split does.
	m, err := fs.Mmap(staging.(*File), 0, sim.BlockSize, MmapOptions{Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	target, _ := vfs.Create(fs, "/tgt")
	if err := fs.Relink(staging.(*File), target.(*File), 0, 0,
		sim.BlockSize, sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	// The mapping still addresses the same physical blocks, which now
	// belong to the target: reads through it see the target's data.
	got := make([]byte, sim.BlockSize)
	if n := m.Load(got, 0); n != sim.BlockSize {
		t.Fatalf("Load after relink = %d", n)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("mapping invalidated by relink")
	}
}

func TestRelinkRejectsBadArguments(t *testing.T) {
	_, fs := newFS(t)
	a, _ := vfs.Create(fs, "/a")
	a.Write(make([]byte, 2*sim.BlockSize))
	b, _ := vfs.Create(fs, "/b")
	b.Write(make([]byte, 2*sim.BlockSize))
	af, bf := a.(*File), b.(*File)
	fs.CommitMeta()
	free := fs.FreeBlocks()
	for _, tc := range []struct {
		name                string
		src, dst            *File
		srcOff, dstOff, len int64
	}{
		{"unaligned source offset", af, bf, 100, 0, sim.BlockSize},
		{"unaligned destination offset", af, bf, 0, 100, sim.BlockSize},
		{"unaligned length", af, bf, 0, 0, 100},
		{"empty range", af, bf, 0, 0, 0},
		{"hole in the source", af, bf, 4 * sim.BlockSize, 0, sim.BlockSize},
		{"source partly a hole", af, bf, sim.BlockSize, 0, 2 * sim.BlockSize},
		{"one file on both sides", af, af, 0, sim.BlockSize, sim.BlockSize},
	} {
		err := fs.Relink(tc.src, tc.dst, tc.srcOff, tc.dstOff, tc.len, 0)
		if !errors.Is(err, vfs.ErrInval) {
			t.Fatalf("%s: err = %v, want ErrInval", tc.name, err)
		}
	}
	// A rejected relink changes nothing.
	fs.CommitMeta()
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("rejected relinks changed the free count: %d -> %d", free, got)
	}
	for _, f := range []vfs.File{a, b} {
		if info, _ := f.Stat(); info.Blocks != 2 || info.Size != 2*sim.BlockSize {
			t.Fatalf("%s after rejected relinks: %d blocks, size %d", f.Path(), info.Blocks, info.Size)
		}
	}
}

func TestUnmapCharges(t *testing.T) {
	dev, fs := newFS(t)
	f, _ := vfs.Create(fs, "/u")
	f.Write(make([]byte, sim.BlockSize))
	m, _ := fs.Mmap(f.(*File), 0, sim.BlockSize, MmapOptions{})
	before := dev.Clock().Now()
	m.Unmap()
	if dev.Clock().Now()-before != sim.Munmap.Fixed {
		t.Fatal("Unmap cost wrong")
	}
}

// TestLoadRacesRemap: a reader loading through a mapping while blocks are
// relinked in under it — over blocks it maps, then past its end — and the
// mapping is refreshed sees every 4 KB page wholly as it was or wholly as
// it is, and never a short read: entries are single atomic stores, and a
// grown length is published after the entries under it. Run under -race.
func TestLoadRacesRemap(t *testing.T) {
	_, fs := newFS(t)
	const mapped, grown = 24, 64 // blocks the file starts with, and ends with
	old := func(i int64) byte { return byte(i + 1) }
	moved := func(i int64) byte { return byte(i + 0x81) }
	fill := func(path string, n int64, pat func(int64) byte) *File {
		f, _ := vfs.Create(fs, path)
		for i := int64(0); i < n; i++ {
			if _, err := f.WriteAt(bytes.Repeat([]byte{pat(i)}, sim.BlockSize), i*sim.BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		return f.(*File)
	}
	dst, src := fill("/dst", mapped, old), fill("/src", grown, moved)
	const region = grown * sim.BlockSize
	m, err := fs.Remap(nil, dst, 0, region, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Mapping]
	cur.Store(m)

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		page := make([]byte, sim.BlockSize)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := cur.Load()
			blk := m.Length()/sim.BlockSize - 1 // the newest page
			if i%2 == 0 {
				blk = i / 2 % (blk + 1)
			}
			if n := m.Load(page, blk*sim.BlockSize); n != len(page) {
				t.Errorf("block %d of a %d-byte mapping: short read of %d bytes", blk, m.Length(), n)
				return
			}
			if b := page[0]; (b != old(blk) && b != moved(blk)) || !bytes.Equal(page, bytes.Repeat([]byte{b}, len(page))) {
				t.Errorf("block %d reads neither as it was (%#x) nor as it is (%#x): first byte %#x", blk, old(blk), moved(blk), b)
				return
			}
		}
	}()

	rebuilt := 0
	for _, blk := range append([]int64{5, 0, 23, 11}, seq(mapped, grown)...) {
		off := blk * sim.BlockSize
		if err := fs.Relink(src, dst, off, off, sim.BlockSize, off+sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		m, err := fs.Remap(cur.Load(), dst, 0, region, false, off, sim.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if m != cur.Load() {
			rebuilt++
			cur.Store(m)
		}
	}
	close(stop)
	<-done
	// 24 entries reach 64 by doubling: 48, 64.
	if rebuilt != 2 {
		t.Fatalf("the mapping was rebuilt %d times, want 2", rebuilt)
	}
	for _, blk := range []int64{0, 5, 11, 23, mapped, grown - 1} {
		page := make([]byte, sim.BlockSize)
		if n := cur.Load().Load(page, blk*sim.BlockSize); n != len(page) || page[0] != moved(blk) {
			t.Fatalf("block %d after its relink: %d bytes, first %#x, want %#x", blk, n, page[0], moved(blk))
		}
	}
}

func seq(from, to int64) []int64 {
	var s []int64
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}
