package pmem

import (
	"bytes"
	"slices"
	"testing"

	"splitfs/internal/sim"
)

// zeroStoreBytes is a strict op log's size: formatting one zeroes it.
const zeroStoreBytes = 8 << 20

// The pending list holds frames, each once: an 8 MB NT store rewritten and
// never fenced — rw-inplace never fences — lists its 2 048 frames, not its
// 131 072 lines, and every line is still unpersisted.
func TestPendingListHoldsFrames(t *testing.T) {
	d := New(Config{Size: 2 * zeroStoreBytes, Clock: sim.NewClock()})
	p := bytes.Repeat([]byte{0xa5}, zeroStoreBytes)
	d.StoreNT(0, p, sim.CatPMData)
	d.StoreNT(0, p, sim.CatPMData)
	listed := 0
	for i := range d.shards {
		listed += len(d.shards[i].pending)
	}
	if want := zeroStoreBytes / sim.BlockSize; listed != want {
		t.Fatalf("%d pending-list entries, want %d (one per frame)", listed, want)
	}
	if got, want := d.UnpersistedLines(), zeroStoreBytes/sim.CacheLine; got != want {
		t.Fatalf("UnpersistedLines = %d, want %d", got, want)
	}
}

// A store of zeros into frames no store backed keeps them unbacked and its
// lines hold zero slots, but every line is tracked as any store's would be:
// the counters, the events and the fence's persisted lines are the same.
func TestZeroStoreBacksNoFrame(t *testing.T) {
	const lines = zeroStoreBytes / sim.CacheLine
	store := func(p []byte) *Device {
		d := newDev(t, 2*zeroStoreBytes)
		d.SetTracing(true)
		d.StoreNT(sim.BlockSize, p, sim.CatOpLog)
		return d
	}
	zero, nonzero := store(make([]byte, zeroStoreBytes)), store(bytes.Repeat([]byte{0xa5}, zeroStoreBytes))
	if got := zero.BackedBytes(); got != 0 {
		t.Fatalf("BackedBytes = %d after a zero store, want 0", got)
	}
	if got := zero.UnpersistedLines(); got != lines {
		t.Fatalf("UnpersistedLines = %d after a zero store, want %d", got, lines)
	}
	if zero.Stats() != nonzero.Stats() || zero.EventStats() != nonzero.EventStats() ||
		!slices.Equal(zero.Trace(), nonzero.Trace()) || zero.Clock().Snapshot() != nonzero.Clock().Snapshot() {
		t.Fatal("a zero store and a nonzero store differ in Stats, events or the clock")
	}
	before := zero.Stats().LinesPersisted
	zero.Fence()
	if got := zero.Stats().LinesPersisted - before; got != lines {
		t.Fatalf("the fence persisted %d lines, want %d", got, lines)
	}
	if zero.BackedBytes() != 0 || zero.UnpersistedLines() != 0 {
		t.Fatalf("after the fence BackedBytes = %d, UnpersistedLines = %d; want 0, 0", zero.BackedBytes(), zero.UnpersistedLines())
	}
}

// A store takes an undo page for each backed frame whose lines it saves and
// none for an unbacked one (zero slots hold no bytes), and the fence gives
// them back to the frame pool, so a store + fence cycle allocates nothing
// after the first. Undo pages are not volatile-view frames: BackedBytes
// does not count them.
func TestUndoPagesGoBack(t *testing.T) {
	undoPages := func(d *Device) int {
		n := 0
		for i := range d.shards {
			for _, r := range d.shards[i].frames {
				if r.undo != nil {
					n++
				}
			}
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		fill   byte
		backed int64
	}{
		{"zero", 0, 0},
		{"nonzero", 0xa5, zeroStoreBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDev(t, 2*zeroStoreBytes)
			p := bytes.Repeat([]byte{tc.fill}, zeroStoreBytes)
			cycle := func() {
				d.StoreNT(0, p, sim.CatOpLog)
				d.Fence()
			}
			cycle() // backs the frames (nonzero) and grows the pending lists
			d.StoreNT(0, p, sim.CatOpLog)
			if got := d.BackedBytes(); got != tc.backed {
				t.Fatalf("BackedBytes = %d with the store's slots held, want %d", got, tc.backed)
			}
			if got, want := undoPages(d), int(tc.backed/sim.BlockSize); got != want {
				t.Fatalf("%d undo pages held by the store, want %d", got, want)
			}
			d.Fence()
			if got := undoPages(d); got != 0 {
				t.Fatalf("%d undo pages held after the fence, want 0", got)
			}
			if n := testing.AllocsPerRun(5, cycle); n != 0 {
				t.Fatalf("a repeated %d MB store + fence: %v allocs/op, want 0", zeroStoreBytes>>20, n)
			}
		})
	}
}
