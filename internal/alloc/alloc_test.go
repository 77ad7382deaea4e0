package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func newBitmap(t testing.TB, nblocks int64) *Bitmap {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 1 << 22, Clock: sim.NewClock(), TrackPersistence: true})
	return New(dev, 0, 4096, nblocks)
}

func TestAllocExtentContiguous(t *testing.T) {
	b := newBitmap(t, 128)
	e, _, err := b.AllocExtent(pmem.SrcForeground, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len != 10 || e.Start != 0 {
		t.Fatalf("first alloc = %v, want [0+10)", e)
	}
	for i := e.Start; i < e.End(); i++ {
		if !b.isSet(i) {
			t.Fatalf("block %d not marked allocated", i)
		}
	}
	if b.FreeCount() != 118 {
		t.Fatalf("free = %d, want 118", b.FreeCount())
	}
}

func TestAllocFragmented(t *testing.T) {
	b := newBitmap(t, 16)
	// Fragment: allocate all, free every other block.
	e, _, err := b.AllocExtent(pmem.SrcForeground, 16)
	if err != nil || e.Len != 16 {
		t.Fatalf("bulk alloc: %v %v", e, err)
	}
	for i := int64(0); i < 16; i += 2 {
		b.Free(pmem.SrcForeground, Extent{Start: i, Len: 1})
	}
	exts, _, err := b.Alloc(pmem.SrcForeground, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, e := range exts {
		total += e.Len
	}
	if total != 4 {
		t.Fatalf("fragmented alloc returned %d blocks, want 4", total)
	}
	if len(exts) < 2 {
		t.Fatalf("expected multiple extents on fragmented bitmap, got %v", exts)
	}
}

func TestAllocNoSpace(t *testing.T) {
	b := newBitmap(t, 8)
	if _, _, err := b.Alloc(pmem.SrcForeground, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AllocExtent(pmem.SrcForeground, 1); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Failed multi-extent alloc must roll back.
	b2 := newBitmap(t, 8)
	if _, _, err := b2.Alloc(pmem.SrcForeground, 9); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatal("over-alloc must fail")
	}
	if b2.FreeCount() != 8 {
		t.Fatalf("failed alloc leaked blocks: free = %d", b2.FreeCount())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	b := newBitmap(t, 8)
	e, _, _ := b.AllocExtent(pmem.SrcForeground, 1)
	b.Free(pmem.SrcForeground, e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free(pmem.SrcForeground, e)
}

func TestLoadRebuildsMirror(t *testing.T) {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 1 << 22, Clock: clk, TrackPersistence: true})
	b := New(dev, 0, 4096, 64)
	e, dirty, err := b.AllocExtent(pmem.SrcForeground, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Persist the bitmap bytes the allocator dirtied, as a journal commit
	// would.
	dev.Flush(dirty.Off, dirty.Len, sim.CatPMMeta)
	dev.Fence()
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	b2 := Load(dev, 0, 4096, 64)
	if b2.FreeCount() != 64-e.Len {
		t.Fatalf("reloaded free = %d, want %d", b2.FreeCount(), 64-e.Len)
	}
	for i := e.Start; i < e.End(); i++ {
		if !b2.isSet(i) {
			t.Fatalf("block %d lost across crash", i)
		}
	}
}

func TestBlockOffset(t *testing.T) {
	b := newBitmap(t, 8)
	if got := b.BlockOffset(3); got != 4096+3*sim.BlockSize {
		t.Fatalf("BlockOffset(3) = %d", got)
	}
	if got := b.ExtentOffset(Extent{Start: 2, Len: 1}); got != 4096+2*sim.BlockSize {
		t.Fatalf("ExtentOffset = %d", got)
	}
}

func TestNextFitWrapsAround(t *testing.T) {
	b := newBitmap(t, 8)
	first, _, _ := b.AllocExtent(pmem.SrcForeground, 6) // hint now at 6
	b.Free(pmem.SrcForeground, Extent{Start: first.Start, Len: 2})
	// 2 free at end (6,7), 2 free at start (0,1). Request 4: next-fit
	// takes (6,7) then wraps for (0,1) via Alloc.
	exts, _, err := b.Alloc(pmem.SrcForeground, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("expected wrap-around split, got %v", exts)
	}
	if b.FreeCount() != 0 {
		t.Fatalf("free = %d, want 0", b.FreeCount())
	}
}

// Property: alloc/free sequences never lose or duplicate blocks.
func TestAllocFreeConservation(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 256
		b := newBitmap(t, n)
		rng := sim.NewRNG(seed)
		var live []Extent
		for i := 0; i < 200; i++ {
			if rng.Uint64()%2 == 0 || len(live) == 0 {
				e, _, err := b.AllocExtent(pmem.SrcForeground, int64(rng.Intn(16)+1))
				if err == nil {
					live = append(live, e)
				}
			} else {
				k := rng.Intn(len(live))
				b.Free(pmem.SrcForeground, live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		used := int64(0)
		for _, e := range live {
			used += e.Len
		}
		return b.FreeCount() == n-used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAt(t *testing.T) {
	b := newBitmap(t, 64)
	if _, _, err := b.AllocExtent(pmem.SrcForeground, 4); err != nil { // [0,4)
		t.Fatal(err)
	}
	dirty, err := b.AllocAt(pmem.SrcForeground, Extent{Start: 40, Len: 3})
	if err != nil || dirty.Len == 0 {
		t.Fatalf("AllocAt free blocks: %+v, %v", dirty, err)
	}
	if !b.isSet(40) || !b.isSet(42) || b.isSet(43) || b.FreeCount() != 64-7 {
		t.Fatalf("after AllocAt [40+3): free %d", b.FreeCount())
	}
	for _, e := range []Extent{{Start: 2, Len: 1}, {Start: 39, Len: 2}, {Start: 42, Len: 5}} {
		if _, err := b.AllocAt(pmem.SrcForeground, e); !errors.Is(err, vfs.ErrExist) {
			t.Errorf("AllocAt %v over a taken block: %v", e, err)
		}
	}
	for _, e := range []Extent{{Start: -1, Len: 1}, {Start: 63, Len: 2}, {Start: 5, Len: 0}} {
		if _, err := b.AllocAt(pmem.SrcForeground, e); !errors.Is(err, vfs.ErrInval) {
			t.Errorf("AllocAt %v out of range: %v", e, err)
		}
	}
	if b.FreeCount() != 64-7 {
		t.Fatalf("refused AllocAt calls changed the free count: %d", b.FreeCount())
	}
	// The allocator's own search steps over what AllocAt took.
	for b.FreeCount() > 0 {
		e, _, err := b.AllocExtent(pmem.SrcForeground, 1)
		if err != nil || (e.Start >= 40 && e.Start < 43) {
			t.Fatalf("AllocExtent = %v, %v", e, err)
		}
	}
}

// TestAllocLowestStopsAtTheLastBlock: on a bitmap whose last byte is
// partly past its end, a full bitmap fails with ErrNoSpace rather than
// handing out a bit beyond the last block, and a freed block comes back
// lowest first.
func TestAllocLowestStopsAtTheLastBlock(t *testing.T) {
	b := newBitmap(t, 10)
	for want := int64(0); want < 10; want++ {
		if e, _, err := b.AllocLowest(pmem.SrcForeground); err != nil || e != (Extent{Start: want, Len: 1}) {
			t.Fatalf("AllocLowest = %v, %v; want [%d+1)", e, err, want)
		}
	}
	if e, _, err := b.AllocLowest(pmem.SrcForeground); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("full bitmap: AllocLowest = %v, %v; want ErrNoSpace", e, err)
	}
	b.Free(pmem.SrcForeground, Extent{Start: 7, Len: 1})
	b.Free(pmem.SrcForeground, Extent{Start: 3, Len: 1})
	if e, _, err := b.AllocLowest(pmem.SrcForeground); err != nil || e.Start != 3 {
		t.Fatalf("AllocLowest = %v, %v; want block 3", e, err)
	}
}
