package alloc

import (
	"errors"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Block 0 of the test bitmaps sits three blocks past a device offset that
// every tested alignment divides, so "aligned" never coincides with "block
// number is a multiple": for an 8-block alignment the aligned blocks are
// 5, 13, 21, ...
const (
	alignedBase   = 64 << 10 // bitmap region
	alignedData   = alignedBase + 64*sim.BlockSize + 3*sim.BlockSize
	alignedBlocks = 96
)

func newAlignedBitmap(t testing.TB) (*Bitmap, *pmem.Device) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock()})
	return New(dev, alignedBase, alignedData, alignedBlocks), dev
}

func TestAllocAlignedLowestFirstLeavesHint(t *testing.T) {
	b, dev := newAlignedBitmap(t)
	const align = 8 * sim.BlockSize
	// Move the hint well up the device; aligned placement must ignore it.
	if _, _, err := b.Alloc(pmem.SrcForeground, 40); err != nil {
		t.Fatal(err)
	}
	b.Free(pmem.SrcForeground, Extent{Start: 0, Len: 40})
	hint := b.hint
	clk := dev.Clock()
	before := clk.Snapshot().ByCat[sim.CatAlloc]
	exts, dirty, err := b.AllocAligned(pmem.SrcForeground, 16, align)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0] != (Extent{Start: 5, Len: 16}) || len(dirty) != 1 {
		t.Fatalf("AllocAligned = %v (%d dirty ranges), want one extent [5+16)", exts, len(dirty))
	}
	if off := b.ExtentOffset(exts[0]); off%align != 0 {
		t.Fatalf("device offset %d not a multiple of %d", off, align)
	}
	if b.hint != hint {
		t.Fatalf("aligned allocation moved the next-fit hint %d -> %d", hint, b.hint)
	}
	if got := clk.Snapshot().ByCat[sim.CatAlloc] - before; got != sim.AllocExtent.Fixed {
		t.Fatalf("aligned allocation charged %d ns, want one extent search (%d)", got, sim.AllocExtent.Fixed)
	}
	// The next aligned run starts at the first aligned block past the
	// first one; freeing the first makes it the lowest again.
	second, _, _ := b.AllocAligned(pmem.SrcForeground, 16, align)
	if second[0].Start != 21 {
		t.Fatalf("second aligned run at %d, want 21", second[0].Start)
	}
	b.Free(pmem.SrcForeground, exts[0])
	third, _, _ := b.AllocAligned(pmem.SrcForeground, 16, align)
	if third[0].Start != 5 {
		t.Fatalf("freed aligned region not reused: got %d, want 5", third[0].Start)
	}
	if b.FreeCount() != alignedBlocks-32 {
		t.Fatalf("free = %d, want %d", b.FreeCount(), alignedBlocks-32)
	}
}

func TestAllocAlignedFallsBack(t *testing.T) {
	b, _ := newAlignedBitmap(t)
	const align = 8 * sim.BlockSize
	// One allocated block inside every aligned window of 8: no aligned
	// run of 8 is free, but plenty of blocks are.
	for s := int64(5); s < alignedBlocks; s += 8 {
		b.MarkAllocated(Extent{Start: s + 2, Len: 1})
	}
	free := b.FreeCount()
	exts, _, err := b.AllocAligned(pmem.SrcForeground, 8, align)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range exts {
		total += e.Len
		if e.Len == 8 && b.ExtentOffset(e)%align == 0 {
			t.Fatalf("fallback returned an aligned run %v the scan missed", e)
		}
	}
	if total != 8 || b.FreeCount() != free-8 {
		t.Fatalf("fallback allocated %d blocks (free %d -> %d), want 8", total, free, b.FreeCount())
	}
	// A trivial alignment is plain Alloc; an impossible request fails
	// without leaking.
	if exts, _, err := b.AllocAligned(pmem.SrcForeground, 4, sim.BlockSize); err != nil || len(exts) == 0 {
		t.Fatalf("block-aligned request: %v, %v", exts, err)
	}
	free = b.FreeCount()
	if _, _, err := b.AllocAligned(pmem.SrcForeground, free+1, align); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("over-allocation err = %v, want ErrNoSpace", err)
	}
	if b.FreeCount() != free {
		t.Fatalf("failed aligned allocation leaked: free %d -> %d", free, b.FreeCount())
	}
}
