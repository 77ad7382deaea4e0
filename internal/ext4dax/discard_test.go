package ext4dax

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// filled creates path holding one block of b, committed and fenced.
func filled(t *testing.T, fs *FS, path string, b byte) *File {
	t.Helper()
	f, err := vfs.Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{b}, sim.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return f.(*File)
}

// deviceBlock returns the 4 KB at device offset off.
func deviceBlock(dev *pmem.Device, off int64) []byte {
	p := make([]byte, sim.BlockSize)
	dev.ReadAt(p, off, sim.CatPMData)
	return p
}

// relinkOver relinks /src's block over /dst's and returns the device
// offset of the block /dst gave up, whose free has then committed.
func relinkOver(t *testing.T, fs *FS, src, dst *File) int64 {
	t.Helper()
	old, _ := fs.blockOf(dst.in, 0)
	if err := fs.Relink(src, dst, 0, 0, sim.BlockSize, sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	if blk := (old - fs.lay.DataOff) / sim.BlockSize; fs.bBmp.First(blk, blk+1, true) == blk {
		t.Fatal("the relinked-over block is still allocated after the relink committed")
	}
	return old
}

func commit(t *testing.T, fs *FS) {
	t.Helper()
	fs.CommitMeta()
}

// A block that a relink freed, and that is allocated again and written
// before the next commit ends its grace period, keeps what its new owner
// stored: the discard looks at the bitmap, not at the queue alone.
func TestDiscardSkipsBlockReallocatedInGracePeriod(t *testing.T) {
	dev, fs := newFS(t)
	dst, src := filled(t, fs, "/dst", 0xaa), filled(t, fs, "/src", 0xbb)
	old := relinkOver(t, fs, src, dst)

	// Take every free block, so the freed one among them, and write the
	// new owner's bytes where it landed.
	g, _ := vfs.Create(fs, "/g")
	re := g.(*File)
	if err := re.Preallocate(fs.FreeBlocks(), 0); err != nil {
		t.Fatal(err)
	}
	at := int64(-1)
	for l := int64(0); l < re.in.extents.End(); l++ {
		if off, _ := fs.blockOf(re.in, l); off == old {
			at = l
		}
	}
	if at < 0 {
		t.Fatal("the freed block was not allocated again")
	}
	want := bytes.Repeat([]byte{0xcc}, sim.BlockSize)
	if _, err := re.WriteAt(want, at*sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil { // ends the grace period, with the data fenced
		t.Fatal(err)
	}
	commit(t, fs)
	if got := deviceBlock(dev, old); !bytes.Equal(got, want) {
		t.Fatalf("the reallocated block reads %#x..., want its new owner's %#x", got[0], want[0])
	}
}

// A block freed while a Mapping access is in flight stays readable
// through every commit that sees the access, even once a Remap has moved
// the page table off it, and goes at the first commit that does not.
func TestDiscardWaitsForAccessInFlight(t *testing.T) {
	dev, fs := newFS(t)
	dst, src := filled(t, fs, "/dst", 0xaa), filled(t, fs, "/src", 0xbb)
	m, err := fs.Mmap(dst, 0, sim.BlockSize, MmapOptions{Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Stands for a Load that translated through m before the relink and
	// has not copied yet.
	fs.inflight.Add(1)
	old := relinkOver(t, fs, src, dst)
	if _, err := fs.Remap(m, dst, 0, sim.BlockSize, false, 0, sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	was := bytes.Repeat([]byte{0xaa}, sim.BlockSize)
	for range 2 {
		commit(t, fs)
		if got := deviceBlock(dev, old); !bytes.Equal(got, was) {
			t.Fatalf("the freed block reads %#x... while an access is in flight, want the old %#x", got[0], was[0])
		}
	}
	fs.inflight.Add(-1)
	backed := dev.BackedBytes()
	commit(t, fs)
	if got := deviceBlock(dev, old); !bytes.Equal(got, make([]byte, sim.BlockSize)) {
		t.Fatalf("the freed block reads %#x... after a commit with nothing in flight, want it discarded", got[0])
	}
	if got := dev.BackedBytes(); got != backed-sim.BlockSize {
		t.Fatalf("BackedBytes %d -> %d, want its frame given back", backed, got)
	}
}

// A block a relink took out of a mapped file outlives every commit that
// comes before the Remap — the relink's own, a later one with nothing to
// commit, one with work in it, both from another goroutine: until the
// Remap, a lock-free Load through the page table still translates to it.
// The first commit after the Remap discards it.
func TestDiscardWaitsForRemap(t *testing.T) {
	dev, fs := newFS(t)
	dst, src := filled(t, fs, "/dst", 0xaa), filled(t, fs, "/src", 0xbb)
	m, err := fs.Mmap(dst, 0, sim.BlockSize, MmapOptions{Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	old := relinkOver(t, fs, src, dst)
	done := make(chan struct{})
	go func() {
		fs.CommitMeta()              // nothing runs
		src.SetUserWatermark(nil, 7) // a metadata update that allocates nothing
		fs.CommitMeta()
		close(done)
	}()
	<-done
	page := make([]byte, sim.BlockSize)
	if m.Load(page, 0); !bytes.Equal(page, bytes.Repeat([]byte{0xaa}, sim.BlockSize)) {
		t.Fatalf("before its Remap the mapping reads %#x..., want the old %#x", page[0], 0xaa)
	}
	if _, err := fs.Remap(m, dst, 0, sim.BlockSize, false, 0, sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	if m.Load(page, 0); page[0] != 0xbb {
		t.Fatalf("after its Remap the mapping reads %#x..., want the relinked %#x", page[0], 0xbb)
	}
	backed := dev.BackedBytes()
	commit(t, fs)
	if got := deviceBlock(dev, old); !bytes.Equal(got, make([]byte, sim.BlockSize)) {
		t.Fatalf("the freed block reads %#x... after the commit that follows the Remap, want it discarded", got[0])
	}
	if got := dev.BackedBytes(); got != backed-sim.BlockSize {
		t.Fatalf("BackedBytes %d -> %d, want its frame given back", backed, got)
	}
}

// TestLoadRacesRemapAndCommits is TestLoadRacesRemap with a second
// goroutine committing all the while, so commits fall between a relink and
// its Remap: whatever commits come first, a page reads as it was or as it
// is, never as a discarded block. The file first has every block relinked
// over in place, then grows, so the page table is edited in place and
// rebuilt both.
func TestLoadRacesRemapAndCommits(t *testing.T) {
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(2)
	go func() { // the reader
		defer wg.Done()
		page := make([]byte, sim.BlockSize)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := cur.Load()
			blk := i % (m.Length() / sim.BlockSize)
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
	go func() { // the other committer
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				src.SetUserWatermark(nil, i)
			}
			fs.CommitMeta()
		}
	}()

	for blk := range int64(grown) {
		off := blk * sim.BlockSize
		if err := fs.Relink(src, dst, off, off, sim.BlockSize, off+sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched() // let commits in before the Remap
		m, err := fs.Remap(cur.Load(), dst, 0, region, false, off, sim.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(m)
	}
}

// Device memory follows allocation: a file created, written, fsynced and
// unlinked leaves the device's backing within one frame slab (64 frames)
// of where it was once two commits have passed — one to commit the free,
// one to end its grace period.
func TestBackingFollowsAllocation(t *testing.T) {
	const slab = 64 * sim.BlockSize
	dev, fs := newFS(t)
	commit(t, fs)
	before := dev.BackedBytes()
	f, _ := vfs.Create(fs, "/big")
	chunk := bytes.Repeat([]byte{0x5a}, 1<<20)
	for range 8 {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	full := dev.BackedBytes()
	if full < before+8<<20 {
		t.Fatalf("BackedBytes %d -> %d after writing 8 MB", before, full)
	}
	if err := fs.Unlink("/big"); err != nil {
		t.Fatal(err)
	}
	commit(t, fs)
	commit(t, fs)
	if after := dev.BackedBytes(); after > before+slab {
		t.Fatalf("BackedBytes %d before the file, %d with it, %d once it is gone: want within %d of before", before, full, after, slab)
	}
}
