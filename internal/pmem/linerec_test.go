package pmem

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
	"unsafe"

	"splitfs/internal/sim"
)

// lineRecs returns how many frames of d hold a line record, and an error
// if a held record is the zero record (it should have been given back),
// if a shard's tracked or slot count is not what its records say, or if a
// shard with a tracked line has no bit in d.active.
func lineRecs(d *Device) (int, error) {
	held := 0
	for si := range d.shards {
		s := &d.shards[si]
		s.mu.Lock()
		tracked, slots := 0, 0
		for i := range s.frames {
			l := s.frames[i].lineRec
			if l == nil {
				continue
			}
			held++
			if l.busy()|l.saved|l.zeroed == 0 && !l.listed {
				s.mu.Unlock()
				return 0, fmt.Errorf("shard %d frame %d holds the zero line record", si, i)
			}
			tracked += bits.OnesCount64(l.busy())
			slots += bits.OnesCount64(l.saved | l.zeroed)
		}
		w, b := d.activeBit(s)
		err := error(nil)
		switch {
		case tracked != s.tracked || slots != s.slots:
			err = fmt.Errorf("shard %d counts %d tracked lines and %d slots, its records %d and %d", si, s.tracked, s.slots, tracked, slots)
		case tracked != 0 && w.Load()&b == 0:
			err = fmt.Errorf("shard %d has %d tracked lines and no active bit", si, tracked)
		}
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	return held, nil
}

// activeShards counts the bits set in d.active.
func activeShards(d *Device) int {
	n := 0
	for w := range d.active {
		n += bits.OnesCount64(d.active[w].Load())
	}
	return n
}

// A frame record is the view pointer and the line-record pointer: the
// host memory a device holds per frame of every shard a store touched. A
// line record, one per frame with a line in flight, stays in the
// allocator's 64-byte class.
func TestFrameRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(frameRec{}); got > 16 {
		t.Fatalf("frameRec is %d bytes, want at most 16", got)
	}
	if got := unsafe.Sizeof(lineRec{}); got > 64 {
		t.Fatalf("lineRec is %d bytes, want at most 64", got)
	}
}

// settled fails t unless d holds no line record, no shard is marked
// active and no line is unpersisted.
func settled(t *testing.T, d *Device, when string) {
	t.Helper()
	held, err := lineRecs(d)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if held != 0 || activeShards(d) != 0 || d.UnpersistedLines() != 0 {
		t.Fatalf("%s: %d line records, %d active shards, %d unpersisted lines; want none",
			when, held, activeShards(d), d.UnpersistedLines())
	}
}

// Line records live only on frames with a line in flight: NT stores,
// buffered stores made pending by a flush, and plain stores flushed, all
// across shards, hold one per frame they touch until the fence gives them
// back, on a tracked device and an untracked one alike.
func TestFenceGivesLineRecordsBack(t *testing.T) {
	for _, track := range []bool{true, false} {
		t.Run(fmt.Sprintf("track=%v", track), func(t *testing.T) {
			d := New(Config{Size: 4 << 20, Clock: sim.NewClock(), TrackPersistence: track})
			p := bytes.Repeat([]byte{0x5a}, 3*sim.BlockSize)
			span := d.shardSpan
			d.StoreNT(span-sim.BlockSize, p, sim.CatPMData) // three frames over two shards
			d.StoreBuffered(3*span+100, p[:200], sim.CatPMMeta)
			d.Store(5*span, p[:64], sim.CatPMMeta)
			held, err := lineRecs(d)
			if err != nil {
				t.Fatal(err)
			}
			if held != 5 || activeShards(d) != 4 {
				t.Fatalf("%d line records and %d active shards before the fence, want 5 and 4", held, activeShards(d))
			}
			d.Flush(3*span+100, 200, sim.CatPMMeta)
			d.Flush(5*span, 64, sim.CatPMMeta)
			d.Fence()
			settled(t, d, "after the fence")
			if got := d.Stats().LinesPersisted; got != 3*64+4+1 {
				t.Fatalf("the fence persisted %d lines, want %d", got, 3*64+4+1)
			}
		})
	}
}

// A crash gives every line record back, whatever its lines held: pending
// lines with byte slots, a dirty line with a zero slot, a buffered line,
// and a frame a zero store unbacked. Neither the crashed device nor its
// copy holds one.
func TestCrashAndCopyHoldNoLineRecord(t *testing.T) {
	d := newDev(t, 4<<20)
	p := bytes.Repeat([]byte{0xa5}, 2*sim.BlockSize)
	d.PersistNT(0, p, sim.CatPMData)
	d.StoreNT(100, p[:300], sim.CatPMData)
	d.Store(d.shardSpan+64, p[:64], sim.CatPMMeta)
	d.StoreBuffered(2*d.shardSpan, p[:64], sim.CatPMMeta)
	d.Store(sim.BlockSize, make([]byte, sim.BlockSize), sim.CatPMMeta)
	if held, err := lineRecs(d); err != nil || held != 4 {
		t.Fatalf("%d line records before the crash (%v), want 4", held, err)
	}
	if err := d.Crash(sim.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	settled(t, d, "after the crash")
	settled(t, d.Copy(sim.NewClock()), "the copy")
}
