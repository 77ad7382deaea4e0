package pmem

import (
	"bytes"
	"testing"

	"splitfs/internal/sim"
)

// fuzzGeometry is the shape of a fuzz device and the scale its operands
// decode at: offsets step by 16*unit bytes, lengths by unit bytes (16*unit
// for the ops that count in 16-byte units).
type fuzzGeometry struct {
	size   int64
	shards int
	unit   int64
}

// fuzzGeometries are the devices every input drives. The first is five
// shards of 13 lines each (the last one 12) in one frame apiece: small
// enough that a few hundred random ops hit every shard boundary, leave some
// shards never written, and revisit lines in every state. The second is
// three shards of 86 lines (the last one 84), each two frames — a whole
// one, then a short one — so a store, load or discard crosses a frame
// boundary inside a shard, and a shard's frames sit off the device's block
// grid.
var fuzzGeometries = [...]fuzzGeometry{
	{size: 64 * sim.CacheLine, shards: 5, unit: 1},
	{size: 256 * sim.CacheLine, shards: 3, unit: 4},
}

// backedFrames counts the frames the device's shards hold.
func backedFrames(d *Device) int64 {
	n := int64(0)
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for _, r := range s.frames {
			if r.view != nil {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// frameAt returns the device range of d's frame k, counting every shard's
// frames in order and wrapping at the last.
func frameAt(d *Device, k int) (off int64, n int) {
	var frames [][2]int64
	for i := range d.shards {
		s := &d.shards[i]
		for o := int64(0); o < s.size; o += sim.BlockSize {
			frames = append(frames, [2]int64{s.base + o, min(sim.BlockSize, s.size-o)})
		}
	}
	f := frames[k%len(frames)]
	return f[0], int(f[1])
}

// FuzzDeviceModel drives the Device and the naive reference model with the
// same op sequence, decoded from the fuzz input, and requires them to be
// indistinguishable: loads, volatile view, crash images, counters, clock
// breakdown, event numbering and trace; and the frames the device holds
// must be what BackedBytes says, and a copy of a crashed device must go on
// as a copy of the crashed model does. Op encoding: one opcode byte, then the
// operands the op needs (offset, length, seed), each one byte; a sequence
// ends when the input does. Every input runs on each of fuzzGeometries.
func FuzzDeviceModel(f *testing.F) {
	f.Add([]byte("\x01\x00\x40\x04\x08"))                                         // StoreNT, Fence, tail
	f.Add([]byte("\x00\x0c\x90\x03\x0c\x90\x04\x08\x01"))                         // Store straddling shards, Flush, Fence, torn Crash
	f.Add([]byte("\x02\x05\x50\x04\x03\x05\x50\x04\x07\x00"))                     // buffered: fence must not persist; checkpoint; Crash(nil)
	f.Add([]byte("\x06\x02\x07\x01\x00\x80\x04\x01\x40\x80\x04\x00\x10\x08\x07")) // ArmCrash, run on past the freeze, double Crash
	f.Add([]byte("\x05\x30\xff\x08\x01\x01\x00\x20\x04\x08\x00\x04\x07\x00"))     // never-written read, dropped fence
	// Freeze after a fence, then rewrite a line that kept its slot, fence it
	// clean, rewrite it again, touch a line first written after the freeze.
	f.Add([]byte("\x01\x00\x80\x06\x01\x07\x01\x04\x40\x04\x01\x00\xc0\x04\x01\x00\xc0\x00\x10\x40\x07\x05\x01\x02\x30\x04\x07\x00"))
	f.Add([]byte("\x01\x00\x80\x00\x10\x40\x0d\x03\x05\x00\x80\x00\x20\x40\x03\x20\x40\x04")) // torn crash, copy, go on
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, g := range fuzzGeometries {
			runDeviceModel(t, g, in)
		}
	})
}

// runDeviceModel is one FuzzDeviceModel run of the input on a device of
// geometry g. It returns the device the run ended on: a copy, if it made
// one.
func runDeviceModel(t *testing.T, g fuzzGeometry, in []byte) *Device {
	dc, mc := sim.NewClock(), sim.NewClock()
	d := New(Config{Size: g.size, Clock: dc, TrackPersistence: true, Shards: g.shards})
	m := newModel(g.size, mc)
	d.SetTracing(true)

	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	// span decodes an (offset, length) pair that fits the device:
	// offsets at 16-byte granularity, lengths 0..255 bytes (up to five
	// lines, so up to two shards), both scaled by the geometry's unit.
	span := func() (int64, int) {
		off := int64(next()) * 16 * g.unit
		n := int64(next()) * g.unit
		return off, int(min(n, g.size-off))
	}
	// wide is span with the length in 16-byte units too, so one op can
	// cover whole shards.
	wide := func() (int64, int) {
		off := int64(next()) * 16 * g.unit
		n := int64(next()) * 16 * g.unit
		return off, int(min(n, g.size-off))
	}
	rng := func() (*sim.RNG, *sim.RNG) {
		seed := next()
		if seed == 0 {
			return nil, nil
		}
		return sim.NewRNG(uint64(seed)), sim.NewRNG(uint64(seed))
	}
	fill := byte(1)
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = fill
			fill = fill*5 + 1
		}
		return p
	}
	// store issues p as one store of each kind: 0 Store, 1 StoreNT, 2
	// StoreBuffered.
	store := func(kind byte, off int64, p []byte, cat sim.Category) {
		switch kind {
		case 0:
			d.Store(off, p, cat)
			m.Store(off, p, cat)
		case 1:
			d.StoreNT(off, p, cat)
			m.StoreNT(off, p, cat)
		case 2:
			d.StoreBuffered(off, p, cat)
			m.StoreBuffered(off, p, cat)
		}
	}
	cats := [...]sim.Category{sim.CatPMData, sim.CatPMMeta, sim.CatOpLog}

	for step := 0; len(in) > 0; step++ {
		op := next()
		cat := cats[int(op>>4)%len(cats)]
		switch op & 0x0f {
		case 0, 1, 2:
			off, n := span()
			store(op&0x0f, off, payload(n), cat)
		case 3:
			off, n := span()
			d.Flush(off, n, cat)
			m.Flush(off, n, cat)
		case 4:
			d.Fence()
			m.Fence()
		case 5:
			off, n := span()
			got, want := make([]byte, n), make([]byte, n)
			d.ReadAt(got, off, cat)
			m.ReadAt(want, off, cat)
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v step %d: ReadAt(%d,%d) = %x, model %x", g, step, off, n, got, want)
			}
		case 6:
			k := d.Events() + 1 + int64(next()%8)
			r1, r2 := rng()
			d.ArmCrash(k, r1)
			m.ArmCrash(k, r2)
		case 7:
			r1, r2 := rng()
			if err := d.Crash(r1); err != nil {
				t.Fatal(err)
			}
			m.Crash(r2)
		case 8:
			// Drop every fence whose sequence number has a bit of the
			// mask set; mask 0 removes the filter.
			if mask := int64(next()); mask == 0 {
				d.SetFenceFilter(nil)
				m.SetFenceFilter(nil)
			} else {
				drop := func(seq int64) bool { return seq&mask != 0 }
				d.SetFenceFilter(drop)
				m.SetFenceFilter(drop)
			}
		case 9:
			off, n := wide()
			d.Discard(off, int64(n))
			m.Discard(off, int64(n))
		case 10:
			// A store of the kind the next byte names, over whole runs of
			// lines: eight or more a store can find already in its state
			// and pass over at once, and whole frames to give back.
			kind := next() % 3
			off, n := wide()
			store(kind, off, payload(n), cat)
		case 11:
			// A store of zeros, of the kind the low bits of the next byte
			// name, over a span (bit 4: whole runs of lines). payload never
			// yields a zero line; these back no frame that is not backed
			// already, and their lines are tracked all the same.
			b, decode := next(), span
			if b&0x10 != 0 {
				decode = wide
			}
			off, n := decode()
			store((b&0x0f)%3, off, make([]byte, n), cat)
		case 12:
			// A store of zeros, of the kind the next byte names, over
			// exactly the frame the byte after names: a backed frame of
			// clean lines hands its page to its undo slots and reads as
			// zeros unbacked.
			kind := next() % 3
			off, n := frameAt(d, int(next()))
			store(kind, off, make([]byte, n), cat)
		case 13:
			// Crash, then run on a copy of the crashed image with clocks of
			// its own: it carries the event count and nothing else.
			r1, r2 := rng()
			if err := d.Crash(r1); err != nil {
				t.Fatal(err)
			}
			m.Crash(r2)
			sameRun(t, g, d, m, dc, mc)
			dc, mc = sim.NewClock(), sim.NewClock()
			d, m = d.Copy(dc), m.copy(mc)
			d.SetTracing(true)
		default:
			continue
		}
		if got := volatile(d, g.size); !bytes.Equal(got, m.data) {
			t.Fatalf("%+v step %d (op %#x): volatile views differ", g, step, op)
		}
		if got, want := d.UnpersistedLines(), len(m.lines); got != want {
			t.Fatalf("%+v step %d (op %#x): UnpersistedLines = %d, model %d", g, step, op, got, want)
		}
		if got := d.Stats(); got != m.stats {
			t.Fatalf("%+v step %d (op %#x): Stats = %+v, model %+v", g, step, op, got, m.stats)
		}
		if d.CrashFired() != m.frozen {
			t.Fatalf("%+v step %d (op %#x): CrashFired = %v, model %v", g, step, op, d.CrashFired(), m.frozen)
		}
		if got, want := d.BackedBytes(), backedFrames(d)*sim.BlockSize; got != want {
			t.Fatalf("%+v step %d (op %#x): BackedBytes = %d, frames backed %d", g, step, op, got, want)
		}
		if _, err := lineRecs(d); err != nil {
			t.Fatalf("%+v step %d (op %#x): %v", g, step, op, err)
		}
	}

	sameRun(t, g, d, m, dc, mc)
	// The durable image, whatever state the sequence ended in.
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	m.Crash(nil)
	if got := volatile(d, g.size); !bytes.Equal(got, m.data) {
		t.Fatalf("%+v: final crash images differ", g)
	}
	if held, err := lineRecs(d); err != nil || held != 0 || d.UnpersistedLines() != 0 {
		t.Fatalf("%+v: after Crash %d line records (%v), UnpersistedLines = %d", g, held, err, d.UnpersistedLines())
	}
	return d
}
