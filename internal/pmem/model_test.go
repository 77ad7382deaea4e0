package pmem

// modelDevice is the device this package shipped before the dense-state /
// lazy-shard / undo-slot rewrite, kept as a naive reference: one
// map[int64]lineState for the whole address space, an eagerly allocated
// volatile view and a full durable shadow copy that Crash copies back.
// It has no shards, locks or atomics and does O(device) work freely; its
// only job is to be obviously right, so FuzzDeviceModel can require the
// real Device to be indistinguishable from it.

import (
	"slices"
	"sort"
	"testing"

	"splitfs/internal/sim"
)

type modelDevice struct {
	clock     *sim.Clock
	data      []byte // volatile view
	persisted []byte // durable view
	lines     map[int64]lineState

	stats  Stats
	events int64
	trace  []Event

	armedAt     int64
	rng         *sim.RNG
	frozen      bool
	fenceFilter func(seq int64) bool
	fenceSeq    int64
	lastReadEnd int64
}

func newModel(size int64, clock *sim.Clock) *modelDevice {
	size = (size + sim.CacheLine - 1) / sim.CacheLine * sim.CacheLine
	return &modelDevice{
		clock:     clock,
		data:      make([]byte, size),
		persisted: make([]byte, size),
		lines:     make(map[int64]lineState),
	}
}

func (m *modelDevice) ReadAt(p []byte, off int64, cat sim.Category) {
	r := sim.PMReadRand
	if m.lastReadEnd == off {
		r = sim.PMReadSeq
	}
	m.lastReadEnd = off + int64(len(p))
	m.clock.ChargeAs(r, cat, int64(len(p)))
	m.stats.BytesRead += int64(len(p))
	copy(p, m.data[off:])
}

func (m *modelDevice) StoreNT(off int64, p []byte, cat sim.Category) {
	m.clock.ChargeAs(sim.PMStoreNT, cat, int64(len(p)))
	m.write(off, p, linePending)
	m.stats.BytesWrittenNT += int64(len(p))
	m.event(EvStoreNT, cat, off, int64(len(p)))
}

func (m *modelDevice) Store(off int64, p []byte, cat sim.Category) {
	m.clock.ChargeAs(sim.PMStore, cat, int64(len(p)))
	m.write(off, p, lineDirty)
	m.stats.BytesWrittenCached += int64(len(p))
	m.event(EvStore, cat, off, int64(len(p)))
}

func (m *modelDevice) StoreBuffered(off int64, p []byte, cat sim.Category) {
	m.clock.ChargeAs(sim.PMStore, cat, int64(len(p)))
	m.write(off, p, lineBuffered)
	m.stats.BytesWrittenCached += int64(len(p))
}

func (m *modelDevice) write(off int64, p []byte, st lineState) {
	if len(p) == 0 {
		return
	}
	copy(m.data[off:], p)
	for ln := off / sim.CacheLine; ln <= (off+int64(len(p))-1)/sim.CacheLine; ln++ {
		if st != lineDirty || m.lines[ln] == 0 {
			m.lines[ln] = st
		}
	}
}

func (m *modelDevice) Flush(off int64, n int, cat sim.Category) {
	if n <= 0 {
		return
	}
	dirty := int64(0)
	for ln := off / sim.CacheLine; ln <= (off+int64(n)-1)/sim.CacheLine; ln++ {
		if st := m.lines[ln]; st == lineDirty || st == lineBuffered {
			m.lines[ln] = linePending
			dirty++
		}
	}
	m.stats.Flushes += dirty
	m.clock.ChargeAs(sim.PMFlush, cat, dirty)
	m.event(EvFlush, cat, off, int64(n))
}

func (m *modelDevice) Fence() {
	m.clock.Charge(sim.PMFence)
	m.stats.Fences++
	drop := false
	if m.fenceFilter != nil {
		m.fenceSeq++
		drop = m.fenceFilter(m.fenceSeq)
	}
	if !drop {
		for ln, st := range m.lines {
			if st != linePending {
				continue
			}
			if !m.frozen {
				o := ln * sim.CacheLine
				copy(m.persisted[o:o+sim.CacheLine], m.data[o:o+sim.CacheLine])
			}
			delete(m.lines, ln)
			m.stats.LinesPersisted++
		}
	}
	m.event(EvFence, sim.CatFence, 0, 0)
}

// Discard zeroes, in both views, every clean line wholly inside the range;
// a frozen model keeps its durable image and so does nothing.
func (m *modelDevice) Discard(off, n int64) {
	if m.frozen {
		return
	}
	for ln := (off + sim.CacheLine - 1) / sim.CacheLine; ln < (off+n)/sim.CacheLine; ln++ {
		if m.lines[ln] == 0 {
			o := ln * sim.CacheLine
			clear(m.data[o : o+sim.CacheLine])
			clear(m.persisted[o : o+sim.CacheLine])
		}
	}
}

func (m *modelDevice) SetFenceFilter(f func(seq int64) bool) {
	m.fenceFilter, m.fenceSeq = f, 0
}

func (m *modelDevice) ArmCrash(k int64, rng *sim.RNG) { m.armedAt, m.rng = k, rng }

func (m *modelDevice) event(kind EventKind, cat sim.Category, off, n int64) {
	m.events++
	m.trace = append(m.trace, Event{Seq: m.events, Kind: kind, Cat: cat, Off: off, Len: n})
	if m.armedAt != 0 && m.events == m.armedAt && !m.frozen {
		m.tear(m.rng)
		m.frozen = true
	}
}

// tear writes the surviving words of every unpersisted, non-buffered line
// into the durable shadow, lines in sorted order.
func (m *modelDevice) tear(rng *sim.RNG) {
	if rng == nil {
		return
	}
	lns := make([]int64, 0, len(m.lines))
	for ln, st := range m.lines {
		if st != lineBuffered {
			lns = append(lns, ln)
		}
	}
	sort.Slice(lns, func(i, j int) bool { return lns[i] < lns[j] })
	for _, ln := range lns {
		o := ln * sim.CacheLine
		for w := int64(0); w < sim.CacheLine; w += 8 {
			if rng.Uint64()&1 == 0 {
				copy(m.persisted[o+w:o+w+8], m.data[o+w:o+w+8])
			}
		}
	}
}

func (m *modelDevice) Crash(rng *sim.RNG) {
	if !m.frozen {
		m.tear(rng)
	}
	m.lines = make(map[int64]lineState)
	m.frozen, m.armedAt, m.rng = false, 0, nil
	copy(m.data, m.persisted)
	m.lastReadEnd = -1
}

// copy is Device.Copy of a crashed model: the image and the event count
// carry over, and nothing else does.
func (m *modelDevice) copy(clock *sim.Clock) *modelDevice {
	c := newModel(int64(len(m.data)), clock)
	copy(c.data, m.data)
	copy(c.persisted, m.persisted)
	c.events, c.lastReadEnd = m.events, m.lastReadEnd
	return c
}

// regionGeometry is a 3 MB device: past its first 2 MB of frames (768 in
// all, in five shards off the block grid) the pool carves slabs from
// regions, so one device holds heap frames and region frames side by side.
// Offsets step by three frames; a wide length reaches the whole device.
var regionGeometry = fuzzGeometry{size: 3 << 20, shards: 5, unit: 768}

// TestDeviceModelAcrossRegions runs the model on a device whose frames
// cross from heap slabs into a region: stores, a torn crash and its rewind,
// Discard and reuse of given-back pages, undo pages, and Copy of the crashed
// image, whose one heap slab the copy's next stores carve past.
func TestDeviceModelAcrossRegions(t *testing.T) {
	d := runDeviceModel(t, regionGeometry, []byte{
		0x0a, 1, 0x00, 0xd0, // NT stores over 2.4 MB: 624 frames, past 512
		0x04,                // fence
		0x0a, 0, 0x08, 0xc0, // plain stores over most of it: undo pages past the region's start
		0x03, 0x08, 0xff, // flush 64 lines of them
		0x07, 0x05, // torn crash: rewind from the undo pages
		0x19, 0x10, 0x60, // discard 288 frames: back to the free list
		0x1a, 1, 0x30, 0x70, // NT stores reuse them, then carve the rest
		0x05, 0xc0, 0xff, // read in the region
		0x04,                   // fence
		0x0b, 0x10, 0x00, 0x80, // zeros over whole frames: pages back to the pool
		0x04,
		0x0d, 0x00, // crash, continue on a copy
		0x0a, 1, 0x00, 0xff, // the copy's stores over the whole device
		0x0c, 0, 0x07, // zero store over one frame: its page becomes undo
		0x06, 0x02, 0x09, // arm a torn crash two events on
		0x00, 0xd0, 0x80, 0x04, 0x00, 0xe0, 0x80, 0x04,
		0x07, 0x00, // crash at the frozen image
		0x25, 0x00, 0xff, // read from the start
	})
	if d.pool.carved <= hugeFrames || d.pool.maps == nil {
		t.Fatalf("the copy carved %d frames: its stores never left its heap slab for a region", d.pool.carved)
	}
}

// sameRun fails unless device and model saw the same events, trace and
// clock breakdown so far.
func sameRun(t *testing.T, g fuzzGeometry, d *Device, m *modelDevice, dc, mc *sim.Clock) {
	t.Helper()
	if d.Events() != m.events {
		t.Fatalf("%+v: Events = %d, model %d", g, d.Events(), m.events)
	}
	if got := d.Trace(); !slices.Equal(got, m.trace) {
		t.Fatalf("%+v: traces differ:\n%v\n%v", g, got, m.trace)
	}
	if got, want := dc.Snapshot(), mc.Snapshot(); got != want {
		t.Fatalf("%+v: clock breakdown = %v, model %v", g, got, want)
	}
}
