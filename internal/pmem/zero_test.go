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
	if zero.Stats() != nonzero.Stats() ||
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
				if r.lineRec != nil && r.undo != nil {
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

// A zero store over the whole of a backed frame whose lines are clean hands
// the frame's page to its undo slots: the page holds every line's durable
// content already, so nothing is copied and no page is taken, and the frame
// reads as zeros unbacked. The durable image is the old content until the
// fence: a crash restores it whole, or tears each word to old or zero, and
// a crash point armed at the zeroing store freezes it however the frame is
// written after. On an untracked device the page goes back to the pool.
func TestWholeFrameZeroStoreTakesNoPage(t *testing.T) {
	const blk = 2 // a frame inside a shard of the 1 MB device
	old := bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, sim.BlockSize/3+1)[:sim.BlockSize]
	zero := make([]byte, sim.BlockSize)
	// setup returns a tracked device whose frame blk holds old, fenced.
	setup := func(t *testing.T) (*Device, *frameRec) {
		t.Helper()
		d := newDev(t, 1<<20)
		d.StoreNT(blk*sim.BlockSize, old, sim.CatOpLog)
		d.Fence()
		return d, &d.shards[0].frames[blk]
	}

	t.Run("no page", func(t *testing.T) {
		d, r := setup(t)
		page, backed := r.view, d.BackedBytes()
		d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
		if got := d.BackedBytes(); got != backed-sim.BlockSize {
			t.Fatalf("BackedBytes = %d after the zero store, want %d", got, backed-sim.BlockSize)
		}
		if r.view != nil || r.lineRec == nil || r.undo != page || r.saved != ^uint64(0) {
			t.Fatalf("view %p, undo %p (the view was %p), saved %#x: want the view page as every line's undo page", r.view, r.undo, page, r.saved)
		}
		if got := readBlock(d, blk); !bytes.Equal(got, zero) {
			t.Fatal("the unbacked frame does not read as zeros")
		}
		cycle := func() {
			d.StoreNT(blk*sim.BlockSize, old, sim.CatOpLog)
			d.Fence()
			d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
			d.Fence()
		}
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Fatalf("store + fence + whole-frame zero store + fence: %v allocs/op, want 0", n)
		}
	})

	t.Run("crash restores", func(t *testing.T) {
		d, _ := setup(t)
		backed := d.BackedBytes()
		d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
		if err := d.Crash(nil); err != nil {
			t.Fatal(err)
		}
		if got := readBlock(d, blk); !bytes.Equal(got, old) {
			t.Fatal("Crash(nil) does not restore the frame's old bytes")
		}
		if d.BackedBytes() != backed || d.UnpersistedLines() != 0 {
			t.Fatalf("after the crash BackedBytes = %d, UnpersistedLines = %d; want %d, 0", d.BackedBytes(), d.UnpersistedLines(), backed)
		}
	})

	// tornImage is what seed's coins leave of old under a zero store: lines
	// ascending, a coin a word, an odd coin keeps the old word.
	tornImage := func(seed uint64) []byte {
		rng, want := sim.NewRNG(seed), make([]byte, sim.BlockSize)
		for w := 0; w < sim.BlockSize; w += 8 {
			if rng.Uint64()&1 != 0 {
				copy(want[w:w+8], old[w:])
			}
		}
		return want
	}
	t.Run("crash tears", func(t *testing.T) {
		d, _ := setup(t)
		d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
		if err := d.Crash(sim.NewRNG(7)); err != nil {
			t.Fatal(err)
		}
		got, want := readBlock(d, blk), tornImage(7)
		for w := 0; w < sim.BlockSize; w += 8 {
			if !bytes.Equal(got[w:w+8], old[w:w+8]) && !bytes.Equal(got[w:w+8], zero[:8]) {
				t.Fatalf("word %d reads %x: neither old nor zero", w/8, got[w:w+8])
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the torn image is not the one seed 7's coins draw")
		}
	})

	t.Run("frozen at the zero store", func(t *testing.T) {
		d, _ := setup(t)
		d.ArmCrash(d.Events()+1, sim.NewRNG(11))
		d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
		if !d.CrashFired() {
			t.Fatal("test premise: the crash point did not fire at the zero store")
		}
		// A nonzero store backs the frame again, short of whole: the fresh
		// view is cleared around it. Fenced, it still must not reach the
		// frozen image.
		d.StoreNT(blk*sim.BlockSize+200, []byte("after the freeze"), sim.CatOpLog)
		d.Fence()
		if err := d.Crash(nil); err != nil {
			t.Fatal(err)
		}
		if got := readBlock(d, blk); !bytes.Equal(got, tornImage(11)) {
			t.Fatal("the crash does not recover the image frozen at the zero store")
		}
	})

	t.Run("untracked", func(t *testing.T) {
		d := New(Config{Size: 1 << 20, Clock: sim.NewClock()})
		d.StoreNT(blk*sim.BlockSize, old, sim.CatOpLog)
		d.StoreNT(blk*sim.BlockSize, zero, sim.CatOpLog)
		if got := d.BackedBytes(); got != 0 {
			t.Fatalf("BackedBytes = %d after the zero store, want 0", got)
		}
		if r := &d.shards[0].frames[blk]; r.view != nil || r.lineRec != nil && r.undo != nil {
			t.Fatal("the untracked frame kept a page")
		}
		if got := readBlock(d, blk); !bytes.Equal(got, zero) {
			t.Fatal("the unbacked frame does not read as zeros")
		}
	})
}
