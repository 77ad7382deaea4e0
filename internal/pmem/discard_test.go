package pmem

import (
	"bytes"
	"testing"

	"splitfs/internal/sim"
)

// fenced returns a tracked device whose first n blocks hold block i's
// index + 1 in every byte, fenced.
func fenced(t *testing.T, n int) *Device {
	t.Helper()
	d := newDev(t, 1<<20)
	for i := range n {
		d.StoreNT(int64(i)*sim.BlockSize, bytes.Repeat([]byte{byte(i + 1)}, sim.BlockSize), sim.CatPMData)
	}
	d.Fence()
	return d
}

func readBlock(d *Device, blk int64) []byte {
	p := make([]byte, sim.BlockSize)
	d.load(p, blk*sim.BlockSize)
	return p
}

// A discarded clean block reads as zeros in both views, its frame goes
// back, and nothing a device counter or the clock can see moves.
func TestDiscardGivesCleanFramesBack(t *testing.T) {
	d := fenced(t, 3)
	if got := d.BackedBytes(); got != 3*sim.BlockSize {
		t.Fatalf("BackedBytes = %d after three blocks, want %d", got, 3*sim.BlockSize)
	}
	stats, events, clock := d.Stats(), d.Events(), d.Clock().Snapshot()
	d.Discard(sim.BlockSize, sim.BlockSize)
	if d.Stats() != stats || d.Events() != events || d.Clock().Snapshot() != clock {
		t.Fatal("Discard moved a device counter, the event count or the clock")
	}
	if got := d.BackedBytes(); got != 2*sim.BlockSize {
		t.Fatalf("BackedBytes = %d after discarding a block, want %d", got, 2*sim.BlockSize)
	}
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	for blk, want := range []byte{1, 0, 3} {
		if got := readBlock(d, int64(blk)); !bytes.Equal(got, bytes.Repeat([]byte{want}, sim.BlockSize)) {
			t.Fatalf("block %d after the crash reads %#x..., want %#x", blk, got[0], want)
		}
	}
}

// Only the lines a discard covers whole are zeroed, and a frame it covers
// in part stays backed.
func TestDiscardRoundsInward(t *testing.T) {
	d := fenced(t, 2)
	d.Discard(10, sim.BlockSize+100) // lines 1..63 of block 0, line 0 of block 1
	b0, b1 := readBlock(d, 0), readBlock(d, 1)
	if !bytes.Equal(b0[:sim.CacheLine], bytes.Repeat([]byte{1}, sim.CacheLine)) || !bytes.Equal(b0[sim.CacheLine:], make([]byte, sim.BlockSize-sim.CacheLine)) {
		t.Fatal("block 0: want its first line kept and the rest zero")
	}
	if !bytes.Equal(b1[:sim.CacheLine], make([]byte, sim.CacheLine)) || !bytes.Equal(b1[sim.CacheLine:], bytes.Repeat([]byte{2}, sim.BlockSize-sim.CacheLine)) {
		t.Fatal("block 1: want its first line zero and the rest kept")
	}
	if got := d.BackedBytes(); got != 2*sim.BlockSize {
		t.Fatalf("BackedBytes = %d, want both partly discarded frames kept", got)
	}
}

// A line whose store has not reached the media keeps its frame, its bytes
// and its undo slot: the crash still rewinds it to what the media held.
func TestDiscardKeepsTrackedLines(t *testing.T) {
	d := fenced(t, 1)
	d.StoreNT(sim.CacheLine, bytes.Repeat([]byte{9}, sim.CacheLine), sim.CatPMData)
	d.Discard(0, sim.BlockSize)
	got := readBlock(d, 0)
	want := make([]byte, sim.BlockSize)
	copy(want[sim.CacheLine:], bytes.Repeat([]byte{9}, sim.CacheLine))
	if !bytes.Equal(got, want) {
		t.Fatal("volatile view: want the pending line kept and every clean line zero")
	}
	if d.BackedBytes() != sim.BlockSize || d.UnpersistedLines() != 1 {
		t.Fatalf("BackedBytes = %d, UnpersistedLines = %d; want the frame and its pending line kept", d.BackedBytes(), d.UnpersistedLines())
	}
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	copy(want[sim.CacheLine:], bytes.Repeat([]byte{1}, sim.CacheLine))
	if got := readBlock(d, 0); !bytes.Equal(got, want) {
		t.Fatal("crash image: want the pending line's durable bytes back and every discarded line zero")
	}
}

// Once an armed crash point fired the durable image is frozen, and
// Discard leaves both views alone.
func TestDiscardOnFrozenDeviceDoesNothing(t *testing.T) {
	d := fenced(t, 1)
	d.ArmCrash(d.Events()+1, nil)
	d.StoreNT(sim.BlockSize, []byte{7}, sim.CatPMData)
	if !d.CrashFired() {
		t.Fatal("the armed crash did not fire")
	}
	d.Discard(0, sim.BlockSize)
	if got := readBlock(d, 0); !bytes.Equal(got, bytes.Repeat([]byte{1}, sim.BlockSize)) || d.BackedBytes() != 2*sim.BlockSize {
		t.Fatal("Discard changed a frozen device")
	}
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	if got := readBlock(d, 0); !bytes.Equal(got, bytes.Repeat([]byte{1}, sim.BlockSize)) {
		t.Fatal("the frozen image lost a block Discard was asked to drop")
	}
}

// A store into a fresh block takes a given-back frame before it allocates:
// discard-then-store cycles allocate nothing and hold BackedBytes level.
func TestDiscardedFramesAreReused(t *testing.T) {
	d := fenced(t, 1)
	block := bytes.Repeat([]byte{5}, sim.BlockSize)
	cur := int64(0)
	cycle := func() { // the block written moves to the other one each time
		d.Discard(cur*sim.BlockSize, sim.BlockSize)
		cur = 1 - cur
		d.StoreNT(cur*sim.BlockSize, block, sim.CatPMData)
		d.Fence()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("discard + store into a fresh block: %v allocs/op, want 0", n)
	}
	if got := d.BackedBytes(); got != sim.BlockSize {
		t.Fatalf("BackedBytes = %d, want one frame", got)
	}
}
