package pmem

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"splitfs/internal/sim"
)

// TestFramePoolTakesHugeRegionsPastTwoMB: a pool that has carved 511 pages
// has mapped no region; its 512th page is the last of its heap slabs, and
// the next is the first of a 2 MB-aligned region.
func TestFramePoolTakesHugeRegionsPastTwoMB(t *testing.T) {
	var p framePool
	for range hugeFrames - 1 {
		p.get(true)
	}
	if p.maps != nil {
		t.Fatalf("%d pages carved: a region mapped", hugeFrames-1)
	}
	p.get(true)
	if p.maps != nil {
		t.Fatalf("the %dth page mapped a region", hugeFrames)
	}
	f := p.get(true)
	if p.maps == nil || len(*p.maps) != 1 || len((*p.maps)[0]) != 2*hugePage {
		t.Fatalf("the page past %d mapped no region of %d bytes", hugeFrames, 2*hugePage)
	}
	if a := uintptr(unsafe.Pointer(f)); a%hugePage != 0 {
		t.Fatalf("the first page of the region is at %#x, not 2 MB-aligned", a)
	}
	if len(p.slab) != hugeFrames-1 || p.carved != 2*hugeFrames {
		t.Fatalf("after the region's first page: %d left in the slab, %d carved; want %d, %d",
			len(p.slab), p.carved, hugeFrames-1, 2*hugeFrames)
	}
	*f = frame{1} // the page is writable
}

// settledMappedBytes collects until the cleanups of earlier tests' devices
// have run: the count holds across a collection.
func settledMappedBytes() int64 {
	n := mappedBytes.Load()
	for range 50 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := mappedBytes.Load()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRegionsUnmappedWhenDeviceIsUnreachable: the regions behind a
// device's frames are unmapped once the device is garbage.
func TestRegionsUnmappedWhenDeviceIsUnreachable(t *testing.T) {
	before := settledMappedBytes()
	func() {
		d := New(Config{Size: 4 << 20, Clock: sim.NewClock(), TrackPersistence: true})
		d.PersistNT(0, bytes.Repeat([]byte{7}, 3<<20), sim.CatPMData)
		if mappedBytes.Load() == before {
			t.Fatal("3 MB of frames mapped no region")
		}
	}()
	for i := 0; i < 100 && mappedBytes.Load() != before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := mappedBytes.Load(); got != before {
		t.Fatalf("%d bytes still mapped after the device was dropped, want %d", got, before)
	}
}

// TestCopyPastTwoMBTakesRegions: a copy counts its one heap slab as
// carved, so a copy of a device past 2 MB takes its next slab from a
// region.
func TestCopyPastTwoMBTakesRegions(t *testing.T) {
	d := New(Config{Size: 4 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	d.PersistNT(0, bytes.Repeat([]byte{7}, 3<<20), sim.CatPMData)
	c := d.Copy(sim.NewClock())
	held, spare := int(c.pool.held.Load()), len(c.pool.slab)
	if c.pool.carved != held+spare || c.pool.maps != nil {
		t.Fatalf("a copy holding %d frames, %d left in its slab, carved %d", held, spare, c.pool.carved)
	}
	c.PersistNT(3<<20, bytes.Repeat([]byte{8}, (spare+1)*sim.BlockSize), sim.CatPMData)
	if c.pool.maps == nil || len(*c.pool.maps) != 1 {
		t.Fatal("the frame past the copy's slab mapped no region")
	}
}
