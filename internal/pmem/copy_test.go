package pmem

import (
	"bytes"
	"testing"

	"splitfs/internal/sim"
)

// TestCopyHoldsTheCrashImage: a copy of a crashed device — torn at a
// boundary, or crashed at a landed point — reads the same bytes over the
// whole device and continues its event count; after that each device
// keeps its own stores.
func TestCopyHoldsTheCrashImage(t *testing.T) {
	torn := newEvDev(t)
	rng := sim.NewRNG(7)
	for off := int64(0); off < torn.Size(); off += 3 * 4096 {
		p := make([]byte, 200)
		for i := range p {
			p[i] = byte(rng.Uint64()) | 1
		}
		torn.Store(off+100, p, sim.CatPMMeta)
		if off%2 == 0 {
			torn.Flush(off+100, len(p), sim.CatPMMeta)
			torn.Fence()
		}
	}
	if err := torn.Crash(sim.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	_, trace := crashPointRun(t, func(*Device) {})
	land := CrashPoint{Ev: trace[1], Way: Land}
	landed, _ := crashPointRun(t, land.Arm)
	land.Crash(landed)

	for name, d := range map[string]*Device{"torn": torn, "landed": landed} {
		c := d.Copy(sim.NewClock())
		if !bytes.Equal(volatile(c, c.Size()), volatile(d, d.Size())) {
			t.Errorf("%s: the copy's image differs from the device's", name)
		}
		if c.Events() != d.Events() {
			t.Errorf("%s: the copy counts %d events, the device %d", name, c.Events(), d.Events())
		}
		before := volatile(d, d.Size())
		c.PersistNT(4096, bytes.Repeat([]byte{9}, 64), sim.CatPMData)
		d.PersistNT(8192, bytes.Repeat([]byte{8}, 64), sim.CatPMData)
		got, mine := volatile(c, 8192+64), volatile(d, 8192+64)
		if !bytes.Equal(got[4096:4096+64], bytes.Repeat([]byte{9}, 64)) || !bytes.Equal(got[8192:], before[8192:8192+64]) ||
			!bytes.Equal(mine[8192:], bytes.Repeat([]byte{8}, 64)) || !bytes.Equal(mine[4096:4096+64], before[4096:4096+64]) {
			t.Errorf("%s: a store on one device shows on the other", name)
		}
	}
}

// TestCopyOfUnfencedStorePanics: a device whose image a fence has not
// settled has no one image to copy.
func TestCopyOfUnfencedStorePanics(t *testing.T) {
	d := newEvDev(t)
	d.StoreNT(0, []byte("unfenced"), sim.CatPMData)
	defer func() {
		if recover() == nil {
			t.Error("Copy of a device with an unfenced store did not panic")
		}
	}()
	d.Copy(sim.NewClock())
}

// TestCopyLeavesRoomForUndoPages: the copy's one slab holds its backed
// frames and room besides, so the undo page the first store over a clean
// backed line saves — a recovery's first journal superblock write — comes
// from it, not from a fresh slab.
func TestCopyLeavesRoomForUndoPages(t *testing.T) {
	d := newEvDev(t)
	d.PersistNT(0, bytes.Repeat([]byte{7}, 4096), sim.CatPMData)
	c := d.Copy(sim.NewClock())
	spare := len(c.pool.slab)
	c.PersistNT(64, bytes.Repeat([]byte{9}, 64), sim.CatPMMeta)
	if spare == 0 || len(c.pool.slab) != spare-1 {
		t.Errorf("the copy's slab held %d spare frames, %d after a store over a clean backed line; want n > 0, then n-1",
			spare, len(c.pool.slab))
	}
}
