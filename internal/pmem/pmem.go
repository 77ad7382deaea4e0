// Package pmem emulates an Intel Optane DC Persistent Memory device, the
// substrate the SplitFS paper evaluates on.
//
// The emulator models the three properties PM file systems depend on:
//
//  1. The cost profile of PM (latencies and bandwidths from the paper's
//     Table 2), charged to a sim.Clock.
//  2. The persistence model of the x86 + PM controller stack: cached
//     (temporal) stores are volatile until flushed (clwb) and fenced
//     (sfence); non-temporal stores are volatile until fenced; fences
//     drain the write-pending queue. Crash() discards everything that was
//     not persisted, optionally with torn (partially persisted) lines at
//     8-byte store granularity, exactly the failure the paper's 4-byte
//     transactional log checksum defends against (§3.3).
//  3. Wear: per-block write counters and total write IO, used for the
//     paper's write-amplification comparison with Strata (§2.3, §5.8).
//
// All methods are safe for concurrent use. The device is sharded: the
// address space is split into contiguous cache-line-aligned ranges, each
// with its own lock and a 16-byte record per 4 KB frame — the frame of the
// volatile view and, only while a line of the frame is in flight, a line
// record: its 64 lines' persistence state as bit masks and the undo slots
// of its durable lines — so goroutines operating on disjoint regions
// (different files, different staging chunks) never contend and nothing
// the device does is proportional to its size. A frame of the
// volatile view is allocated on its first store of a nonzero byte and
// given back to a device-wide free list by Discard, or by a store of zeros
// over it whole (with TrackPersistence, at the fence that makes the zeros
// durable), so the host holds memory for the blocks the file system holds,
// not for every block ever written or zeroed (see DESIGN.md, "Shard
// granularity").
// Cumulative counters are atomics; per-block wear counters are atomics
// too. Operations spanning several shards take the shard locks one at a
// time in ascending order, so cross-shard tearing of a concurrent
// overlapping read/write pair is possible — which mirrors real hardware,
// where only cache-line-sized accesses are ever atomic.
package pmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"splitfs/internal/sim"
)

// lineState names where a modified cache line sits in the persistence
// pipeline; a line record keeps one mask of lines per state.
type lineState = uint8

const (
	// lineDirty: written with temporal stores, still in the CPU cache; a
	// fence alone does NOT persist it, and on crash it may be partially
	// written back by random eviction.
	lineDirty lineState = iota + 1
	// linePending: flushed (clwb) or written with non-temporal stores; it
	// is sitting in the write-pending queue and persists at the next fence.
	linePending
	// lineBuffered: written with write-ahead buffered stores
	// (StoreBuffered). It models a jbd2-style metadata buffer that lives
	// in the DRAM page cache: loads observe it, but it can never reach
	// the media until explicitly Flushed (journal checkpoint) and fenced.
	// On crash it reverts wholly — no tearing, no random eviction.
	lineBuffered
)

// Config configures a Device.
type Config struct {
	// Size is the device capacity in bytes; it is rounded up to a whole
	// number of cache lines.
	Size int64
	// Clock receives all simulated-time charges. Required.
	Clock *sim.Clock
	// TrackPersistence keeps undo slots of durable lines so Crash() can
	// rewind to the persisted state: the last durable 64 bytes of every
	// line that is modified but not yet fenced (none for a line whose frame
	// was never backed: it is durably zero), in a 4 KB page per frame that
	// holds such a line. Benchmarks that do not crash can leave it off.
	TrackPersistence bool
	// TrackWear maintains per-4KB-block write counters.
	TrackWear bool
	// Shards is the number of independently locked device regions
	// (default 64). Each shard is a contiguous cache-line-aligned byte
	// range; operations on disjoint shards proceed concurrently.
	Shards int
}

// defaultShards makes same-shard collisions of concurrent workloads
// unlikely. Fence and UnpersistedLines visit only the shards with a line
// in flight (Device.active), so only Crash, which locks every shard,
// grows with it.
const defaultShards = 64

// Stats are cumulative device counters.
type Stats struct {
	BytesWrittenNT     int64 // bytes written with non-temporal stores
	BytesWrittenCached int64 // bytes written with temporal stores
	BytesRead          int64
	Flushes            int64 // clwb count
	Fences             int64
	LinesPersisted     int64 // cache lines made durable by fences
}

// BytesWritten is the total write IO issued to the device.
func (s Stats) BytesWritten() int64 { return s.BytesWrittenNT + s.BytesWrittenCached }

// frame is one 4 KB piece of a shard's volatile view, or one frame's undo
// page. Frames are shard-relative: frame i of a shard holds its bytes
// [i*BlockSize, (i+1)*BlockSize), so a shard whose size is not a block
// multiple leaves the tail of its last frame unused.
type frame [sim.BlockSize]byte

// slabFrames is how many frames one host allocation carves: a fresh block
// costs 1/64 of an allocation.
const slabFrames = 64

// hugePage is an x86-64 huge page; past hugeFrames carved, slabs are regions.
const hugePage, hugeFrames = 2 << 20, 2 << 20 / sim.BlockSize

// frameRec is what a shard knows of one frame: its piece of the volatile
// view and, while a line of it is in flight, its line record. The zero
// record is an unbacked frame of clean lines.
type frameRec struct {
	// view is what loads observe; nil until a store brings a nonzero byte,
	// and it reads as zeros.
	view *frame

	// A nil line record reads as every line clean, no undo slot held and
	// the frame off the pending list: most frames, most of the time. A
	// store takes one from the shard's spares (take); a fence or a crash
	// that leaves the frame so gives it back (settle).
	*lineRec
}

// lineRec is where each line of a frame sits in the persistence pipeline,
// and the undo slots that, applied to the view, yield the durable image.
// Bit i of a mask is the frame's line i (a frame is 64 lines). A line is in
// at most one of dirty, pending and buffered, and clean (volatile ==
// durable) in none. A spare record is the zero record but for next.
type lineRec struct {
	dirty    uint64 // lineDirty
	pending  uint64 // linePending
	buffered uint64 // lineBuffered

	// Undo slots (TrackPersistence): the durable content of a line that
	// differs from the media, saved by the store that made it differ. A line
	// in saved holds a byte slot: its 64 bytes at its own offset of undo, a
	// page from the frame pool — the frame's old view, when a zero store
	// over the whole frame unbacked it. A line in zeroed took its slot while
	// view was nil, so it is durably zero and its slot holds no bytes.
	saved, zeroed uint64
	undo          *frame

	// listed: the frame is on its shard's pending list.
	listed bool

	// next links the shard's spares. A record is 64 bytes to the allocator
	// with it or without it, so the free list costs nothing.
	next *lineRec
}

// framePool hands out the 4 KB pages of every shard — frames of the
// volatile view and undo pages — recycled ones first, then the rest of
// the current slab. A page on the free list holds what it held when it was
// given back, so nothing is cleared that is overwritten next: a store that
// does not fill a fresh frame whole clears it, and the bytes of an undo
// page are read only at lines that hold a slot.
type framePool struct {
	mu     sync.Mutex // +lockrank:framepool
	free   []*frame
	slab   []frame   // what is left of the newest slab
	carved int       // frames of every slab so far
	maps   *mappings // the regions past hugeFrames; nil until the first
	// held counts the pages serving as a frame of the volatile view: got
	// as one, or made one by rewind, and not given back or made an undo
	// page by a whole-frame zero store.
	held atomic.Int64
}

// get returns a page; a frame of the volatile view (view) counts as held,
// an undo page does not.
func (p *framePool) get(view bool) *frame {
	if view {
		p.held.Add(1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	if len(p.slab) == 0 {
		// Past hugeFrames, a region if one maps; the first one's cleanup
		// unmaps all once the device, which every frame access holds, is gone.
		if p.carved >= hugeFrames {
			if p.maps == nil {
				p.maps = new(mappings)
				runtime.AddCleanup(p, (*mappings).unmap, p.maps)
			}
			p.slab = p.maps.add()
		}
		if len(p.slab) == 0 {
			p.slab = make([]frame, slabFrames)
		}
		p.carved += len(p.slab)
	}
	f := &p.slab[0]
	p.slab = p.slab[1:]
	return f
}

// put takes back a page; view as it was got.
func (p *framePool) put(f *frame, view bool) {
	p.mu.Lock()
	p.free = append(p.free, f)
	p.mu.Unlock()
	if view {
		p.held.Add(-1)
	}
}

// shard owns one contiguous cache-line-aligned byte range of the device
// and a record of each of its frames.
type shard struct {
	// Innermost data lock of the hierarchy; the event sink and the frame
	// pool nest inside it (crash sweeps hold shard locks while recording,
	// stores while they take a frame).
	//
	// +lockrank:order shard < pmevent
	// +lockrank:order shard < framepool
	mu   sync.Mutex // +lockrank:shard
	base int64      // device offset of the shard's first byte
	size int64      // bytes owned (the last shard may be short)

	// frames is allocated by the shard's first store; a frame's view by the
	// first store into it that carries a nonzero byte. A missing view reads
	// as zeros and costs nothing, whatever state its lines are in.
	frames []frameRec
	spare  *lineRec // line records given back, linked by next

	tracked int // lines that are not clean
	slots   int // lines holding an undo slot

	// pending lists, once each, the frames whose lines entered linePending
	// since the last fence. A frame whose pending lines a buffered store
	// claimed back stays listed; the fence counts what is pending then.
	pending []int32
}

// Device is a simulated PM module.
type Device struct {
	foreground // the Device's own write methods: As(SrcForeground)'s

	cfg   Config
	clock *sim.Clock

	size      int64 // capacity in bytes, a cache-line multiple
	shards    []shard
	shardSpan int64           // bytes per shard, a cache-line multiple
	pool      framePool       // frames of every shard's volatile view
	wear      []atomic.Uint32 // writes per 4 KB block (nil unless TrackWear)

	// active has a bit per shard, 64 shards a word: a lock-free hint that
	// the shard's tracked count may be non-zero, so the device-global
	// sweeps (Fence, UnpersistedLines) visit only those shards, in
	// ascending order, without taking the others' locks. Set under the
	// shard's lock whenever a line is marked; cleared under it when no
	// tracked line is left. A store racing a fence was not ordered before
	// it, so skipping it is exactly sfence semantics.
	active []atomic.Uint64

	lastReadEnd atomic.Int64 // for sequential-vs-random latency

	// Persistence-event machinery (event.go). events is the monotone
	// event counter; frozen means an armed crash point has been reached
	// and the durable image must no longer change.
	events atomic.Int64
	frozen atomic.Bool
	ev     eventState

	nBytesNT     atomic.Int64
	nBytesCached atomic.Int64
	nBytesRead   atomic.Int64
	nFlushes     atomic.Int64
	nFences      atomic.Int64
	nPersisted   atomic.Int64

	// Per-event-source breakdowns of the write-path counters, indexed
	// by the source of the Writer that wrote (observability plane; see
	// SourceStats). One extra atomic add per store/flush/fence.
	srcBytes   [evSources]atomic.Int64
	srcFlushes [evSources]atomic.Int64
	srcFences  [evSources]atomic.Int64
}

// ErrNoPersistence is returned by Crash on a device without persistence
// tracking.
var ErrNoPersistence = errors.New("pmem: device built without TrackPersistence")

// New creates a device. It panics if Size is not positive or Clock is nil,
// since both indicate a programming error.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("pmem: non-positive size")
	}
	if cfg.Clock == nil {
		panic("pmem: nil clock")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards
	}
	size := (cfg.Size + sim.CacheLine - 1) / sim.CacheLine * sim.CacheLine
	span := (size + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	span = (span + sim.CacheLine - 1) / sim.CacheLine * sim.CacheLine
	if span < sim.CacheLine {
		span = sim.CacheLine
	}
	d := &Device{
		cfg:       cfg,
		clock:     cfg.Clock,
		size:      size,
		shards:    make([]shard, (size+span-1)/span),
		shardSpan: span,
	}
	d.active = make([]atomic.Uint64, (len(d.shards)+63)/64)
	d.foreground = d.As(SrcForeground)
	for i := range d.shards {
		s := &d.shards[i]
		s.base = int64(i) * span
		s.size = min(span, size-s.base)
	}
	if cfg.TrackWear {
		d.wear = make([]atomic.Uint32, (size+sim.BlockSize-1)/sim.BlockSize)
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Clock returns the clock this device charges.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Shards returns the number of independently locked device regions.
func (d *Device) Shards() int { return len(d.shards) }

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > d.size {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside device of %d bytes",
			off, off+int64(n), d.size))
	}
}

// forShards visits every shard overlapping [off, off+n) in ascending
// order, holding exactly one shard lock at a time, and calls fn with the
// byte sub-range [lo, hi) the shard owns. Shard boundaries are cache-line
// aligned, so each cache line belongs to exactly one shard.
func (d *Device) forShards(off int64, n int64, fn func(s *shard, lo, hi int64)) {
	end := off + n
	for si := off / d.shardSpan; si*d.shardSpan < end; si++ {
		lo, hi := si*d.shardSpan, (si+1)*d.shardSpan
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		s := &d.shards[si]
		s.mu.Lock()
		fn(s, lo, hi)
		s.mu.Unlock()
	}
}

// lockAll acquires every shard lock in ascending order (Crash needs a
// device-wide consistent point). Safe against forShards because no code
// path ever holds more than one shard lock while waiting for another.
func (d *Device) lockAll() {
	for i := range d.shards {
		d.shards[i].mu.Lock()
	}
}

func (d *Device) unlockAll() {
	for i := range d.shards {
		d.shards[i].mu.Unlock()
	}
}

// activeBit returns the word of d.active that holds shard s's bit, and
// the bit.
func (d *Device) activeBit(s *shard) (*atomic.Uint64, uint64) {
	i := s.base / d.shardSpan
	return &d.active[i/64], 1 << (i % 64)
}

// forActive calls fn, under the shard's lock, for each shard whose bit is
// set in d.active when its word is read, in ascending order.
func (d *Device) forActive(fn func(s *shard)) {
	for w := range d.active {
		for m := d.active[w].Load(); m != 0; m &= m - 1 {
			s := &d.shards[w*64+bits.TrailingZeros64(m)]
			s.mu.Lock()
			fn(s)
			s.mu.Unlock()
		}
	}
}

// ReadAt copies device contents into p, charging device read latency plus
// read-bandwidth time to cat. The latency is sequential (169 ns) when the
// read continues where the previous one ended, random (305 ns) otherwise.
func (d *Device) ReadAt(p []byte, off int64, cat sim.Category) {
	d.readCharged(p, off, cat, sim.PMReadSeq, sim.PMReadRand)
}

// ReadIntoUser copies device contents into a user buffer, charging the
// end-to-end load+memcpy cost of the file-data read path (§5.4, Table 6)
// rather than the raw device bandwidth.
func (d *Device) ReadIntoUser(p []byte, off int64, cat sim.Category) {
	d.readCharged(p, off, cat, sim.PMUserReadSeq, sim.PMUserReadRand)
}

// readCharged loads p from off, charging seq to cat when the read
// continues where the previous one ended, rnd otherwise.
func (d *Device) readCharged(p []byte, off int64, cat sim.Category, seq, rnd sim.OpenRow) {
	d.checkRange(off, len(p))
	if d.lastReadEnd.Load() == off {
		rnd = seq
	}
	d.lastReadEnd.Store(off + int64(len(p)))
	d.clock.ChargeAs(rnd, cat, int64(len(p)))
	d.nBytesRead.Add(int64(len(p)))
	d.load(p, off)
}

// load copies the volatile view of [off, off+len(p)) into p.
func (d *Device) load(p []byte, off int64) {
	d.forShards(off, int64(len(p)), func(s *shard, lo, hi int64) {
		s.read(p[lo-off:hi-off], lo-s.base)
	})
}

// read copies the shard's bytes [lo, lo+len(p)) into p. A frame no store
// reached, or one Discard gave back, reads as zeros. Caller holds the
// shard's lock.
func (s *shard) read(p []byte, lo int64) {
	if s.frames == nil {
		clear(p)
		return
	}
	for hi := lo + int64(len(p)); lo < hi; {
		i, o, n := frameSpan(lo, hi)
		if f := s.frames[i].view; f == nil {
			clear(p[:n])
		} else {
			copy(p[:n], f[o:])
		}
		p, lo = p[n:], lo+n
	}
}

// frameSpan returns the frame i holding the shard's byte lo, and the part
// of [lo, hi) inside it: the frame's bytes [o, o+n).
func frameSpan(lo, hi int64) (i, o, n int64) {
	i, o = lo/sim.BlockSize, lo%sim.BlockSize
	return i, o, min(hi-lo, sim.BlockSize-o)
}

// frameSize is the bytes of the shard that frame i holds: a block, or less
// for the last frame of a shard whose size is not a block multiple.
func (s *shard) frameSize(i int64) int64 { return min(sim.BlockSize, s.size-i*sim.BlockSize) }

// lineMask is the mask of the lines that a frame's bytes [lo, hi) touch;
// lo < hi.
func lineMask(lo, hi int64) uint64 {
	return ^uint64(0) >> (63 - (hi-1)/sim.CacheLine) & (^uint64(0) << (lo / sim.CacheLine))
}

// lowRun returns the lowest run of set bits of m != 0, as the lines [a,
// b), and m without it.
func lowRun(m uint64) (a, b int, rest uint64) {
	a = bits.TrailingZeros64(m)
	b = a + bits.TrailingZeros64(^(m >> a))
	return a, b, m & (^uint64(0) << b)
}

// lines returns the lines [a, b) of f.
func lines(f *frame, a, b int) []byte { return f[a*sim.CacheLine : b*sim.CacheLine] }

// Peek copies device contents into p charging only CPU-cache-speed time.
// It models reading metadata that is resident in the CPU cache or page
// cache (e.g. the journal re-reading buffers it is about to log); cold
// reads must use ReadAt.
func (d *Device) Peek(p []byte, off int64) {
	d.checkRange(off, len(p))
	d.clock.ChargeN(sim.CacheRead, int64(len(p)))
	d.load(p, off)
}

// StoreNT writes p with non-temporal stores: the data bypasses the cache
// and lands in the write-pending queue, becoming durable at the next
// Fence. Charges the NT store startup latency plus store-bandwidth time.
func (w Writer) StoreNT(off int64, p []byte, cat sim.Category) {
	w.d.checkRange(off, len(p))
	w.d.clock.ChargeAs(sim.PMStoreNT, cat, int64(len(p)))
	w.d.write(off, p, linePending)
	w.d.nBytesNT.Add(int64(len(p)))
	w.d.srcBytes[w.src].Add(int64(len(p)))
	w.d.event(w.src, EvStoreNT, cat, off, int64(len(p)))
}

// Store writes p with ordinary temporal stores. The data sits in the CPU
// cache: it is NOT durable until the covering lines are Flushed and a
// Fence completes. Cheap (cache-speed) on the clock.
func (w Writer) Store(off int64, p []byte, cat sim.Category) {
	w.d.checkRange(off, len(p))
	w.d.clock.ChargeAs(sim.PMStore, cat, int64(len(p)))
	w.d.write(off, p, lineDirty)
	w.d.nBytesCached.Add(int64(len(p)))
	w.d.srcBytes[w.src].Add(int64(len(p)))
	w.d.event(w.src, EvStore, cat, off, int64(len(p)))
}

// StoreBuffered writes p as write-ahead-buffered metadata: loads observe
// the new content immediately, but the covered lines can never reach the
// media until they are Flushed (a journal checkpoint) and fenced, and on
// crash they revert wholly. This models jbd2's metadata buffers, which
// live in the DRAM page cache until the journal's commit record is
// durable — the write-ahead property that makes journaled metadata
// atomic. Cache-speed on the clock, like Store. Not a persistence event:
// the crash image is unchanged.
func (w Writer) StoreBuffered(off int64, p []byte, cat sim.Category) {
	w.d.checkRange(off, len(p))
	w.d.clock.ChargeAs(sim.PMStore, cat, int64(len(p)))
	w.d.write(off, p, lineBuffered)
	w.d.nBytesCached.Add(int64(len(p)))
	w.d.srcBytes[w.src].Add(int64(len(p)))
}

func (d *Device) write(off int64, p []byte, st lineState) {
	if len(p) == 0 {
		return
	}
	d.forShards(off, int64(len(p)), func(s *shard, lo, hi int64) {
		if s.frames == nil {
			s.frames = make([]frameRec, (s.size+sim.BlockSize-1)/sim.BlockSize)
		}
		q := p[lo-off : hi-off]
		for lo, hi = lo-s.base, hi-s.base; lo < hi; {
			i, o, n := frameSpan(lo, hi)
			s.store(i, o, q[:n], st, d.cfg.TrackPersistence, &d.pool)
			q, lo = q[n:], lo+n
		}
		if w, b := d.activeBit(s); w.Load()&b == 0 {
			w.Or(b)
		}
	})
	if d.wear != nil {
		for b := off / sim.BlockSize; b <= (off+int64(len(p))-1)/sim.BlockSize; b++ {
			d.wear[b].Add(1)
		}
	}
}

// zeros is what an unbacked frame holds.
var zeros frame

// store writes p at byte o of frame i and moves the lines it touches to
// st; with track, the clean ones keep their durable content first. Caller
// holds the shard's lock.
func (s *shard) store(i, o int64, p []byte, st lineState, track bool, pool *framePool) {
	r := &s.frames[i]
	s.take(r)
	m := lineMask(o, o+int64(len(p)))
	clean := m &^ r.busy()
	s.tracked += bits.OnesCount64(clean)
	// A store of zeros over the whole frame leaves it unbacked. Untracked,
	// its page goes back to the pool. Tracked, with every line clean and no
	// slot held, the page holds the durable content of every line already:
	// it becomes their undo page, with nothing copied (a checkpoint zeroing
	// the op log takes no page).
	if r.view != nil && o == 0 && int64(len(p)) == s.frameSize(i) &&
		bytes.Equal(p, zeros[:len(p)]) {
		switch {
		case !track:
			pool.put(r.view, true)
			r.view = nil
		case clean == m && r.saved|r.zeroed == 0:
			s.slots += bits.OnesCount64(m)
			r.undo, r.saved, r.view = r.view, m, nil
			pool.held.Add(-1)
		}
	}
	if track {
		// After a freeze a clean line may still hold the slot that carries
		// its frozen content.
		s.save(r, clean&^(r.saved|r.zeroed), pool)
	}
	// An NT store to a dirty line still leaves the line pending: the NT
	// data is in the WPQ regardless of prior cached stores. A buffered store
	// claims the line outright — write-ahead metadata must never leak to
	// media via an older state — while a plain dirty store only claims
	// clean lines.
	switch st {
	case lineDirty:
		r.dirty |= clean
	case linePending:
		r.dirty, r.buffered, r.pending = r.dirty&^m, r.buffered&^m, r.pending|m
		s.list(i)
	case lineBuffered:
		r.dirty, r.pending, r.buffered = r.dirty&^m, r.pending&^m, r.buffered|m
	}
	// A store of zeros leaves an unbacked frame unbacked: it reads as zeros
	// already.
	if r.view == nil && !bytes.Equal(p, zeros[:len(p)]) {
		r.view = pool.get(true)
		if len(p) < sim.BlockSize {
			clear(r.view[:])
		}
	}
	if r.view != nil {
		copy(r.view[o:], p)
	}
}

// take gives frame r a line record, a spare one if the shard has one,
// unless it holds one. Caller holds the shard's lock.
func (s *shard) take(r *frameRec) {
	if r.lineRec != nil {
		return
	}
	if l := s.spare; l != nil {
		r.lineRec, s.spare, l.next = l, l.next, nil
		return
	}
	r.lineRec = new(lineRec)
}

// settle gives frame r's line record back to the shard's spares once every
// line is clean, none holds a slot and the frame is off the pending list:
// then it is the zero record. Caller holds the shard's lock.
func (s *shard) settle(r *frameRec) {
	if l := r.lineRec; l.busy()|l.saved|l.zeroed == 0 && !l.listed {
		r.lineRec, s.spare, l.next = nil, l, s.spare
	}
}

// busy is the mask of the lines that are not clean; none without a record.
func (l *lineRec) busy() uint64 {
	if l == nil {
		return 0
	}
	return l.dirty | l.pending | l.buffered
}

// list puts frame i on the pending list unless it is there. Caller holds
// the shard's lock.
func (s *shard) list(i int64) {
	if r := &s.frames[i]; !r.listed {
		r.listed = true
		s.pending = append(s.pending, int32(i))
	}
}

// save gives the lines of m undo slots holding their current (still
// durable) content: byte slots if the frame is backed, zero slots if not.
// Caller holds the shard's lock.
func (s *shard) save(r *frameRec, m uint64, pool *framePool) {
	if m == 0 {
		return
	}
	s.slots += bits.OnesCount64(m)
	if r.view == nil {
		r.zeroed |= m
		return
	}
	if r.undo == nil {
		r.undo = pool.get(false)
	}
	r.saved |= m
	for m != 0 {
		var a, b int
		a, b, m = lowRun(m)
		copy(lines(r.undo, a, b), lines(r.view, a, b))
	}
}

// release drops the undo slots of the lines of m — their volatile content
// is the durable content now; an undo page left with no slot goes back to
// the pool. Caller holds the shard's lock.
func (s *shard) release(r *frameRec, m uint64, pool *framePool) {
	s.slots -= bits.OnesCount64(m & (r.saved | r.zeroed))
	r.zeroed &^= m
	m &= r.saved
	if m == 0 {
		return
	}
	r.saved &^= m
	if r.saved == 0 {
		pool.put(r.undo, false)
		r.undo = nil
	}
}

// Flush issues clwb for every cache line covering [off, off+n): dirty
// and buffered lines move to the write-pending queue and will persist at
// the next Fence (for buffered metadata this is the journal-checkpoint
// write-back). Only modified lines cost write-back time; a clwb of a
// clean line has nothing to write back.
func (w Writer) Flush(off int64, n int, cat sim.Category) {
	if n <= 0 {
		return
	}
	d := w.d
	d.checkRange(off, n)
	dirty := int64(0)
	d.forShards(off, int64(n), func(s *shard, lo, hi int64) {
		if s.tracked == 0 {
			return
		}
		for lo, hi = lo-s.base, hi-s.base; lo < hi; {
			i, o, n := frameSpan(lo, hi)
			lo += n
			r := &s.frames[i]
			if r.lineRec == nil {
				continue
			}
			if m := (r.dirty | r.buffered) & lineMask(o, o+n); m != 0 {
				r.dirty, r.buffered, r.pending = r.dirty&^m, r.buffered&^m, r.pending|m
				s.list(i)
				dirty += int64(bits.OnesCount64(m))
			}
		}
	})
	d.nFlushes.Add(dirty)
	d.srcFlushes[w.src].Add(dirty)
	d.clock.ChargeAs(sim.PMFlush, cat, dirty)
	d.event(w.src, EvFlush, cat, off, int64(n))
}

// Fence issues an sfence: every line in the write-pending queue becomes
// durable. The write-pending queue is device-global, so the fence sweeps
// every shard with a line in flight — one at a time, so disjoint stores
// keep flowing while it drains.
func (w Writer) Fence() {
	d := w.d
	d.clock.Charge(sim.PMFence)
	d.nFences.Add(1)
	d.srcFences[w.src].Add(1)
	if d.dropFence() {
		// Fault injection (SetFenceFilter): the sfence was "forgotten" —
		// nothing drains. Still a persistence event.
		d.event(w.src, EvFence, sim.CatFence, 0, 0)
		return
	}
	persisted := int64(0)
	d.forActive(func(s *shard) {
		// A frozen device (armed crash point reached) keeps its durable
		// image fixed: later fences drain the queue but keep the slots.
		persisted += s.drain(d.cfg.TrackPersistence && !d.frozen.Load(), &d.pool)
		if s.tracked == 0 {
			w, b := d.activeBit(s)
			w.And(^b)
		}
	})
	d.nPersisted.Add(persisted)
	d.event(w.src, EvFence, sim.CatFence, 0, 0)
}

// drain makes every pending line of the shard clean and returns how many
// there were; with release, their undo slots go too (the lines are durable
// as they stand). Caller holds the shard's lock.
func (s *shard) drain(release bool, pool *framePool) int64 {
	n := 0
	for _, i := range s.pending {
		r := &s.frames[i]
		n += bits.OnesCount64(r.pending)
		if release {
			s.release(r, r.pending, pool)
		}
		r.pending, r.listed = 0, false
		s.settle(r)
	}
	s.pending = s.pending[:0]
	s.tracked -= n
	return int64(n)
}

// PersistNT is the common StoreNT followed by Fence.
func (w Writer) PersistNT(off int64, p []byte, cat sim.Category) {
	w.StoreNT(off, p, cat)
	w.Fence()
}

// Persist is the store + clwb + sfence sequence for temporal stores.
func (d *Device) Persist(off int64, p []byte, cat sim.Category) {
	d.Store(off, p, cat)
	d.Flush(off, len(p), cat)
	d.Fence()
}

// Discard tells the device that the file system no longer holds [off,
// off+n) — ext4's discard of an extent whose free has committed. Every
// clean cache line wholly inside the range becomes zeros, in the volatile
// and the durable view alike; a dirty, pending or buffered line, whose
// store has not reached the media, is left as it is. A frame the range
// covers whole and that holds only clean lines goes back to the device's
// free list, which later stores draw on before they allocate.
//
// Discard is host bookkeeping: it charges no simulated time, changes no
// Stats field and is not a persistence event. On a frozen device (an
// armed crash point fired) it does nothing, since the durable image must
// stay the one frozen.
func (d *Device) Discard(off, n int64) {
	d.checkRange(off, int(n))
	lo := (off + sim.CacheLine - 1) / sim.CacheLine * sim.CacheLine
	hi := (off + n) / sim.CacheLine * sim.CacheLine
	if lo >= hi {
		return
	}
	d.forShards(lo, hi-lo, func(s *shard, lo, hi int64) {
		if s.frames != nil && !d.frozen.Load() {
			s.discard(lo-s.base, hi-s.base, &d.pool)
		}
	})
}

// discard zeroes the clean lines of the shard's line-aligned range [lo,
// hi) and gives back each frame that the range covers whole and that
// holds no tracked line. Caller holds the shard's lock.
func (s *shard) discard(lo, hi int64, pool *framePool) {
	for lo < hi {
		i, o, n := frameSpan(lo, hi)
		lo += n
		r := &s.frames[i]
		if r.view == nil {
			continue
		}
		m := lineMask(o, o+n)
		busy := m & r.busy()
		if o == 0 && n == s.frameSize(i) && busy == 0 {
			pool.put(r.view, true)
			r.view = nil
			continue
		}
		for c := m &^ busy; c != 0; {
			var a, b int
			a, b, c = lowRun(c)
			clear(lines(r.view, a, b))
		}
	}
}

// BackedBytes reports the frames in use: 4 KB for every frame a store
// backed and no Discard gave back. Frames given back stay allocated on the
// device's free list for later stores to reuse, and so does the rest of
// the newest slab, so the host memory behind the volatile view follows the
// high-water mark of this figure, not its current value. It is a host
// figure, not a device counter, so it is not part of Stats.
func (d *Device) BackedBytes() int64 {
	return d.pool.held.Load() * sim.BlockSize
}

// Crash simulates power failure and rewinds the volatile view to the
// durable state. Lines still in the cache or write-pending queue are
// handled per the x86/PM failure model:
//
//   - If rng is nil, every unpersisted line reverts entirely.
//   - If rng is non-nil, each unpersisted 8-byte word independently has a
//     50% chance of having reached the media, producing torn lines — the
//     failure mode SplitFS's log-entry checksum must detect. Lines are
//     visited in ascending order, so one seed yields one image.
//   - Buffered (write-ahead metadata) lines always revert wholly.
//
// If an armed crash point fired (CrashFired), the durable image was
// already frozen — torn words included — at that event; rng is ignored
// and the volatile view rewinds to the frozen image, which also disarms
// and unfreezes the device.
//
// The work is proportional to the frames of each shard up to the last one
// that holds an undo slot, not to the device. Returns ErrNoPersistence when
// the device keeps no undo slots.
func (d *Device) Crash(rng *sim.RNG) error {
	if !d.cfg.TrackPersistence {
		return ErrNoPersistence
	}
	d.lockAll()
	defer d.unlockAll()
	frozen := d.frozen.Load()
	for i := range d.shards {
		s := &d.shards[i]
		if !frozen {
			s.tear(rng, &d.pool)
		}
		s.rewind(&d.pool)
	}
	for w := range d.active {
		d.active[w].Store(0)
	}
	d.frozen.Store(false)
	d.ev.mu.Lock()
	d.ev.armedAt, d.ev.rng = 0, nil
	d.ev.refreshHooks()
	d.ev.mu.Unlock()
	d.lastReadEnd.Store(-1)
	return nil
}

// Copy returns a device charging clock that holds d's image and carries
// on its event count, so an event numbered on a recovery of d has the
// same number on a recovery of the copy. Nothing else carries over: no
// trace, armed point, fence filter, Stats or wear. Every line of d must
// be clean and hold no undo slot, as Crash (and a Land point's PersistNT
// after it) leaves it, so no frame holds a line record; Copy panics
// otherwise.
func (d *Device) Copy(clock *sim.Clock) *Device {
	cfg := d.cfg
	cfg.Clock = clock
	c := New(cfg)
	d.lockAll()
	defer d.unlockAll()
	// Every backed frame, and the undo pages of a recovery's first
	// stores, in one allocation.
	c.pool.slab = make([]frame, d.pool.held.Load()+slabFrames/4)
	c.pool.carved = len(c.pool.slab)
	for i := range d.shards {
		s, t := &d.shards[i], &c.shards[i]
		if s.tracked != 0 || s.slots != 0 {
			panic("pmem: Copy of a device with unpersisted lines")
		}
		t.frames = slices.Clone(s.frames)
		for j := range t.frames {
			if f := t.frames[j].view; f != nil {
				t.frames[j].view = c.pool.get(true)
				*t.frames[j].view = *f
			}
		}
	}
	c.events.Store(d.events.Load())
	c.lastReadEnd.Store(d.lastReadEnd.Load())
	return c
}

// rewind applies the undo slots to the volatile view and releases them:
// every line that holds a slot gets its durable content back and becomes
// clean, and the undo pages go back to the pool. Every tracked line holds a
// slot, and so does a line of every listed frame, so no state survives and
// every line record goes back to the spares. A
// zero slot's line is cleared if its frame was backed since. An unbacked
// frame with byte slots is one a whole-frame zero store unbacked: its
// undo page becomes its view again, zero at every line without a byte
// slot, as the unbacked frame read. Caller holds the shard's lock.
func (s *shard) rewind(pool *framePool) {
	for i := 0; s.slots > 0; i++ {
		r := &s.frames[i]
		if r.lineRec == nil {
			continue
		}
		if r.view == nil && r.saved != 0 {
			for m := ^r.saved; m != 0; {
				var a, b int
				a, b, m = lowRun(m)
				clear(lines(r.undo, a, b))
			}
			s.slots -= bits.OnesCount64(r.saved)
			r.view, r.undo, r.saved = r.undo, nil, 0
			pool.held.Add(1)
		}
		for m := r.saved; m != 0; {
			var a, b int
			a, b, m = lowRun(m)
			copy(lines(r.view, a, b), lines(r.undo, a, b))
		}
		for m := r.zeroed; m != 0 && r.view != nil; {
			var a, b int
			a, b, m = lowRun(m)
			clear(lines(r.view, a, b))
		}
		s.release(r, r.saved|r.zeroed, pool)
		r.dirty, r.pending, r.buffered, r.listed = 0, 0, 0, false
		s.settle(r)
	}
	s.pending = s.pending[:0]
	s.tracked = 0
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		BytesWrittenNT:     d.nBytesNT.Load(),
		BytesWrittenCached: d.nBytesCached.Load(),
		BytesRead:          d.nBytesRead.Load(),
		Flushes:            d.nFlushes.Load(),
		Fences:             d.nFences.Load(),
		LinesPersisted:     d.nPersisted.Load(),
	}
}

// Wear returns the write count of the 4 KB block containing off, or 0 when
// wear tracking is off.
func (d *Device) Wear(off int64) uint32 {
	if d.wear == nil {
		return 0
	}
	d.checkRange(off, 1)
	return d.wear[off/sim.BlockSize].Load()
}

// MaxWear returns the highest per-block write count, a proxy for the
// endurance hot spot (§2.1: PM endures ~1e7 write cycles). On a K-Split
// image that is the journal's first blocks: block 0 takes every
// superblock record, and every transaction is written from block 1.
func (d *Device) MaxWear() uint32 {
	var m uint32
	for i := range d.wear {
		if w := d.wear[i].Load(); w > m {
			m = w
		}
	}
	return m
}

// UnpersistedLines reports how many modified cache lines are not yet
// durable; useful in tests asserting persistence discipline.
func (d *Device) UnpersistedLines() int {
	n := 0
	d.forActive(func(s *shard) { n += s.tracked })
	return n
}
