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
// with its own lock, a dense per-line state array and an undo log of
// durable lines, so goroutines operating on disjoint regions (different
// files, different staging chunks) never contend and nothing the device
// does is proportional to its size. The volatile view is a sparse array
// of 4 KB frames per shard, allocated on a frame's first store and given
// back to a device-wide free list by Discard, so the host holds memory
// for the blocks the file system holds, not for every block ever written
// (see DESIGN.md, "Shard granularity").
// Cumulative counters are atomics; per-block wear counters are atomics
// too. Operations spanning several shards take the shard locks one at a
// time in ascending order, so cross-shard tearing of a concurrent
// overlapping read/write pair is possible — which mirrors real hardware,
// where only cache-line-sized accesses are ever atomic.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"splitfs/internal/sim"
)

// lineState tracks where a modified cache line sits in the persistence
// pipeline. It is a byte, so write can test eight lines at once.
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
	// TrackPersistence keeps an undo log of durable lines so Crash() can
	// rewind to the persisted state: the last durable 64 bytes of every
	// line that is modified but not yet fenced, plus a 4-byte slot index
	// per cache line of each written shard (1/16 of what was written).
	// Benchmarks that do not crash can leave it off.
	TrackPersistence bool
	// TrackWear maintains per-4KB-block write counters.
	TrackWear bool
	// Shards is the number of independently locked device regions
	// (default 64). Each shard is a contiguous cache-line-aligned byte
	// range; operations on disjoint shards proceed concurrently.
	Shards int
}

// defaultShards balances lock granularity against the cost of
// whole-device sweeps (Fence, Crash), which visit every shard.
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

// frame is one 4 KB piece of a shard's volatile view. Frames are
// shard-relative: frame i of a shard holds its bytes [i*BlockSize,
// (i+1)*BlockSize), so a shard whose size is not a block multiple leaves
// the tail of its last frame unused.
type frame [sim.BlockSize]byte

const (
	frameLines = sim.BlockSize / sim.CacheLine
	// slabFrames is how many frames one host allocation carves: a fresh
	// block costs 1/64 of an allocation.
	slabFrames = 64
)

// framePool hands out the frames of every shard: recycled ones first,
// then the rest of the current slab. Frames on the free list are zero.
type framePool struct {
	mu   sync.Mutex // +lockrank:framepool
	free []*frame
	slab []frame // what is left of the newest slab
	held int64   // frames handed out and not given back
}

// get returns a zeroed frame.
func (p *framePool) get() *frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held++
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	if len(p.slab) == 0 {
		p.slab = make([]frame, slabFrames)
	}
	f := &p.slab[0]
	p.slab = p.slab[1:]
	return f
}

// put takes back a frame the caller has zeroed.
func (p *framePool) put(f *frame) {
	p.mu.Lock()
	p.free = append(p.free, f)
	p.held--
	p.mu.Unlock()
}

// shard owns one contiguous cache-line-aligned byte range of the device:
// its frames of the volatile view, the persistence state of its lines and
// the undo log that, applied to the volatile view, yields the durable
// image. Lines are addressed by their index within the shard.
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

	// Backing. The per-line arrays and the frame table are allocated
	// together by the shard's first store; a frame by the first store into
	// it. A missing frame reads as zeros and costs nothing.
	frames []*frame    // volatile view (what loads observe)
	state  []lineState // one byte per line; 0 = clean (volatile == durable)
	slot   []int32     // per line, 1 + its index in undo; 0 = none (nil unless TrackPersistence)

	// tracked counts the lines whose state is non-zero.
	tracked int
	// pending lists lines in the order they entered linePending since the
	// last fence. A line a buffered store claimed back stays listed (and
	// is listed again when it is flushed), so the fence re-checks state;
	// the list grows per transition into linePending, never per write.
	pending []int32

	// Undo log: slot i holds the durable content of line undoLine[i],
	// saved by the first store that made the line differ from the media.
	// The slab is dense: releasing a slot moves the last one into it.
	undo     []byte
	undoLine []int32

	// active is a lock-free hint that tracked may be non-zero, so the
	// device-global sweeps (Fence, UnpersistedLines) skip clean shards
	// without taking their locks. Set under mu whenever a line is marked;
	// cleared under mu when no tracked line is left. A store racing a
	// fence was not ordered before it, so skipping it is exactly sfence
	// semantics.
	active atomic.Bool
}

// Device is a simulated PM module.
type Device struct {
	cfg   Config
	clock *sim.Clock

	size      int64 // capacity in bytes, a cache-line multiple
	shards    []shard
	shardSpan int64           // bytes per shard, a cache-line multiple
	pool      framePool       // frames of every shard's volatile view
	wear      []atomic.Uint32 // writes per 4 KB block (nil unless TrackWear)

	lastReadEnd atomic.Int64 // for sequential-vs-random latency

	// Persistence-event machinery (event.go). events is the monotone
	// event counter; frozen means an armed crash point has been reached
	// and the durable image must no longer change. evSrc labels events
	// with the execution context that issued them (WithEventSource).
	events atomic.Int64
	evKind [evKinds]atomic.Int64
	evSrc  atomic.Uint32
	frozen atomic.Bool
	ev     eventState

	nBytesNT     atomic.Int64
	nBytesCached atomic.Int64
	nBytesRead   atomic.Int64
	nFlushes     atomic.Int64
	nFences      atomic.Int64
	nPersisted   atomic.Int64

	// Per-event-source breakdowns of the write-path counters, indexed
	// by the current evSrc label (observability plane; see
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

// ReadAt copies device contents into p, charging device read latency plus
// read-bandwidth time to cat. The latency is sequential (169 ns) when the
// read continues where the previous one ended, random (305 ns) otherwise.
func (d *Device) ReadAt(p []byte, off int64, cat sim.Category) {
	d.checkRange(off, len(p))
	lat := int64(sim.PMRandReadLatencyNs)
	if d.lastReadEnd.Load() == off {
		lat = sim.PMSeqReadLatencyNs
	}
	d.lastReadEnd.Store(off + int64(len(p)))
	d.clock.Charge(cat, lat+sim.ChargeBytes(len(p), sim.PMReadPsPerByte))
	d.nBytesRead.Add(int64(len(p)))
	d.load(p, off)
}

// ReadIntoUser copies device contents into a user buffer, charging the
// end-to-end load+memcpy cost of the file-data read path (§5.4, Table 6)
// rather than the raw device bandwidth.
func (d *Device) ReadIntoUser(p []byte, off int64, cat sim.Category) {
	d.checkRange(off, len(p))
	lat := int64(sim.PMRandReadLatencyNs)
	if d.lastReadEnd.Load() == off {
		lat = sim.PMSeqReadLatencyNs
	}
	d.lastReadEnd.Store(off + int64(len(p)))
	d.clock.Charge(cat, lat+sim.ChargeBytes(len(p), sim.PMUserCopyPsPerByte))
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
	for len(p) > 0 {
		f, o := s.frames[lo/sim.BlockSize], lo%sim.BlockSize
		n := min(int64(len(p)), sim.BlockSize-o)
		if f == nil {
			clear(p[:n])
		} else {
			copy(p[:n], f[o:])
		}
		p, lo = p[n:], lo+n
	}
}

// fill copies p into the shard's bytes from lo on, taking a frame from
// the pool for each one not backed yet. Caller holds the shard's lock.
func (s *shard) fill(p []byte, lo int64, pool *framePool) {
	for len(p) > 0 {
		f := s.frames[lo/sim.BlockSize]
		if f == nil {
			f = pool.get()
			s.frames[lo/sim.BlockSize] = f
		}
		n := copy(f[lo%sim.BlockSize:], p)
		p, lo = p[n:], lo+int64(n)
	}
}

// line returns line ln's bytes. Its frame must be backed: every line that
// is tracked or holds an undo slot was stored to. Caller holds the shard's
// lock.
func (s *shard) line(ln int64) []byte {
	o := ln % frameLines * sim.CacheLine
	return s.frames[ln/frameLines][o : o+sim.CacheLine]
}

// Peek copies device contents into p charging only CPU-cache-speed time.
// It models reading metadata that is resident in the CPU cache or page
// cache (e.g. the journal re-reading buffers it is about to log); cold
// reads must use ReadAt.
func (d *Device) Peek(p []byte, off int64) {
	d.checkRange(off, len(p))
	d.clock.Charge(sim.CatCPU, sim.ChargeBytes(len(p), sim.StorePsPerByte))
	d.load(p, off)
}

// StoreNT writes p with non-temporal stores: the data bypasses the cache
// and lands in the write-pending queue, becoming durable at the next
// Fence. Charges the NT store startup latency plus store-bandwidth time.
func (d *Device) StoreNT(off int64, p []byte, cat sim.Category) {
	d.checkRange(off, len(p))
	d.clock.Charge(cat, int64(sim.PMWriteLatencyNs)+sim.ChargeBytes(len(p), sim.PMWritePsPerByte))
	d.write(off, p, linePending)
	d.nBytesNT.Add(int64(len(p)))
	d.srcBytes[d.srcIdx()].Add(int64(len(p)))
	d.event(EvStoreNT, cat, off, int64(len(p)))
}

// Store writes p with ordinary temporal stores. The data sits in the CPU
// cache: it is NOT durable until the covering lines are Flushed and a
// Fence completes. Cheap (cache-speed) on the clock.
func (d *Device) Store(off int64, p []byte, cat sim.Category) {
	d.checkRange(off, len(p))
	d.clock.Charge(cat, sim.ChargeBytes(len(p), sim.StorePsPerByte))
	d.write(off, p, lineDirty)
	d.nBytesCached.Add(int64(len(p)))
	d.srcBytes[d.srcIdx()].Add(int64(len(p)))
	d.event(EvStore, cat, off, int64(len(p)))
}

// StoreBuffered writes p as write-ahead-buffered metadata: loads observe
// the new content immediately, but the covered lines can never reach the
// media until they are Flushed (a journal checkpoint) and fenced, and on
// crash they revert wholly. This models jbd2's metadata buffers, which
// live in the DRAM page cache until the journal's commit record is
// durable — the write-ahead property that makes journaled metadata
// atomic. Cache-speed on the clock, like Store. Not a persistence event:
// the crash image is unchanged.
func (d *Device) StoreBuffered(off int64, p []byte, cat sim.Category) {
	d.checkRange(off, len(p))
	d.clock.Charge(cat, sim.ChargeBytes(len(p), sim.StorePsPerByte))
	d.write(off, p, lineBuffered)
	d.nBytesCached.Add(int64(len(p)))
	d.srcBytes[d.srcIdx()].Add(int64(len(p)))
}

func (d *Device) write(off int64, p []byte, st lineState) {
	if len(p) == 0 {
		return
	}
	d.forShards(off, int64(len(p)), func(s *shard, lo, hi int64) {
		if s.frames == nil {
			s.back(d.cfg.TrackPersistence)
		}
		rlo, rhi := lo-s.base, hi-s.base // the range within the shard
		last := (rhi - 1) / sim.CacheLine
		for ln := rlo / sim.CacheLine; ln <= last; ln++ {
			// A store leaves a line that is already in its state as it is:
			// skip eight such lines at a time (NT stores rewriting pending
			// data, buffered stores rewriting journaled metadata).
			if ln%8 == 0 && ln+7 <= last && binary.LittleEndian.Uint64(s.state[ln:]) == uint64(st)*0x0101010101010101 {
				ln += 7
				continue
			}
			cur := s.state[ln]
			if cur == 0 {
				s.tracked++
				// The line is about to differ from the media: keep its
				// durable content. After a freeze a clean line may still
				// hold the slot that carries its frozen content.
				if s.slot != nil && s.slot[ln] == 0 {
					s.saveUndo(ln)
				}
			}
			// An NT store to a dirty line still leaves the line pending: the
			// NT data is in the WPQ regardless of prior cached stores. A
			// buffered store claims the line outright — write-ahead metadata
			// must never leak to media via an older state — while a plain
			// dirty store only claims untracked lines.
			if st != lineDirty || cur == 0 {
				if st == linePending && cur != linePending {
					s.pending = append(s.pending, int32(ln))
				}
				s.state[ln] = st
			}
		}
		s.fill(p[lo-off:hi-off], rlo, &d.pool)
		s.active.Store(true)
	})
	if d.wear != nil {
		for b := off / sim.BlockSize; b <= (off+int64(len(p))-1)/sim.BlockSize; b++ {
			d.wear[b].Add(1)
		}
	}
}

// back allocates the shard's per-line arrays and its frame table. Caller
// holds the shard's lock.
func (s *shard) back(undo bool) {
	s.frames = make([]*frame, (s.size+sim.BlockSize-1)/sim.BlockSize)
	s.state = make([]lineState, s.size/sim.CacheLine)
	if undo {
		s.slot = make([]int32, s.size/sim.CacheLine)
	}
}

var zeroLine [sim.CacheLine]byte

// saveUndo copies line ln's current (still durable) content into a fresh
// undo slot; a line whose frame is not backed yet holds zeros. Caller
// holds the shard's lock.
func (s *shard) saveUndo(ln int64) {
	if s.frames[ln/frameLines] == nil {
		s.undo = append(s.undo, zeroLine[:]...)
	} else {
		s.undo = append(s.undo, s.line(ln)...)
	}
	s.undoLine = append(s.undoLine, int32(ln))
	s.slot[ln] = int32(len(s.undoLine))
}

// releaseUndo drops line ln's undo slot — the volatile content is the
// durable content now — keeping the slab dense by moving the last slot
// into the hole. Caller holds the shard's lock.
func (s *shard) releaseUndo(ln int32) {
	i, last := s.slot[ln]-1, int32(len(s.undoLine)-1)
	if i != last {
		moved := s.undoLine[last]
		copy(s.undo[int(i)*sim.CacheLine:], s.undo[int(last)*sim.CacheLine:])
		s.undoLine[i] = moved
		s.slot[moved] = i + 1
	}
	s.undo = s.undo[:int(last)*sim.CacheLine]
	s.undoLine = s.undoLine[:last]
	s.slot[ln] = 0
}

// Flush issues clwb for every cache line covering [off, off+n): dirty
// and buffered lines move to the write-pending queue and will persist at
// the next Fence (for buffered metadata this is the journal-checkpoint
// write-back). Only modified lines cost write-back time; a clwb of a
// clean line has nothing to write back.
func (d *Device) Flush(off int64, n int, cat sim.Category) {
	if n <= 0 {
		return
	}
	d.checkRange(off, n)
	dirty := int64(0)
	d.forShards(off, int64(n), func(s *shard, lo, hi int64) {
		if s.tracked == 0 {
			return
		}
		lo, hi = lo-s.base, hi-s.base
		for ln := lo / sim.CacheLine; ln <= (hi-1)/sim.CacheLine; ln++ {
			if st := s.state[ln]; st == lineDirty || st == lineBuffered {
				s.state[ln] = linePending
				s.pending = append(s.pending, int32(ln))
				dirty++
			}
		}
	})
	d.nFlushes.Add(dirty)
	d.srcFlushes[d.srcIdx()].Add(dirty)
	d.clock.Charge(cat, dirty*sim.FlushLineNs)
	d.event(EvFlush, cat, off, int64(n))
}

// Fence issues an sfence: every line in the write-pending queue becomes
// durable. The write-pending queue is device-global, so the fence sweeps
// every shard — one at a time, so disjoint stores keep flowing while it
// drains.
func (d *Device) Fence() {
	d.clock.Charge(sim.CatFence, sim.FenceNs)
	d.nFences.Add(1)
	d.srcFences[d.srcIdx()].Add(1)
	if d.dropFence() {
		// Fault injection (SetFenceFilter): the sfence was "forgotten" —
		// nothing drains. Still a persistence event.
		d.event(EvFence, sim.CatFence, 0, 0)
		return
	}
	persisted := int64(0)
	for i := range d.shards {
		s := &d.shards[i]
		if !s.active.Load() {
			continue
		}
		s.mu.Lock()
		// A frozen device (armed crash point reached) keeps its durable
		// image fixed: later fences drain the queue but keep the slots.
		persisted += s.drain(s.slot != nil && !d.frozen.Load())
		s.mu.Unlock()
	}
	d.nPersisted.Add(persisted)
	d.event(EvFence, sim.CatFence, 0, 0)
}

// drain makes every pending line of the shard clean and returns how many
// there were; with release, their undo slots go too (the lines are durable
// as they stand). It walks the list backwards so that the lines of one
// large store, whose slots were taken in the same order, free the slab's
// last slot each time and nothing moves. Caller holds the shard's lock.
func (s *shard) drain(release bool) int64 {
	n := int64(0)
	for i := len(s.pending) - 1; i >= 0; i-- {
		ln := s.pending[i]
		if s.state[ln] != linePending {
			continue // claimed back by a buffered store, or listed twice
		}
		s.state[ln] = 0
		if release {
			s.releaseUndo(ln)
		}
		n++
	}
	s.pending = s.pending[:0]
	s.tracked -= int(n)
	if s.tracked == 0 {
		s.active.Store(false)
	}
	return n
}

// PersistNT is the common StoreNT followed by Fence.
func (d *Device) PersistNT(off int64, p []byte, cat sim.Category) {
	d.StoreNT(off, p, cat)
	d.Fence()
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
	for i := lo / sim.BlockSize; i*sim.BlockSize < hi; i++ {
		f := s.frames[i]
		if f == nil {
			continue
		}
		flo, fhi := i*sim.BlockSize, min((i+1)*sim.BlockSize, s.size)
		a, b := max(flo, lo), min(fhi, hi)
		whole := a == flo && b == fhi
		for ln := a / sim.CacheLine; ln < b/sim.CacheLine; ln++ {
			if s.state[ln] != 0 {
				whole = false
			} else {
				clear(s.line(ln))
			}
		}
		if whole { // all zero now: a short shard never writes past its size
			s.frames[i] = nil
			pool.put(f)
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
	d.pool.mu.Lock()
	defer d.pool.mu.Unlock()
	return d.pool.held * sim.BlockSize
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
// The work is proportional to the lines that hold an undo slot, not to
// the device. Returns ErrNoPersistence when the device keeps no undo log.
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
			s.tear(rng)
		}
		s.rewind()
	}
	d.frozen.Store(false)
	d.ev.mu.Lock()
	d.ev.armedAt, d.ev.rng = 0, nil
	d.ev.refreshHooks()
	d.ev.mu.Unlock()
	d.lastReadEnd.Store(-1)
	return nil
}

// rewind applies the undo log to the volatile view and empties it: every
// line that holds a slot gets its durable content back and becomes clean.
// Every tracked line holds a slot, so no state survives. Caller holds the
// shard's lock.
func (s *shard) rewind() {
	for i, ln := range s.undoLine {
		copy(s.line(int64(ln)), s.undo[i*sim.CacheLine:(i+1)*sim.CacheLine])
		s.state[ln] = 0
		s.slot[ln] = 0
	}
	s.undo, s.undoLine = s.undo[:0], s.undoLine[:0]
	s.pending = s.pending[:0]
	s.tracked = 0
	s.active.Store(false)
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
// endurance hot spot (§2.1: PM endures ~1e7 write cycles).
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
	for i := range d.shards {
		s := &d.shards[i]
		if !s.active.Load() {
			continue
		}
		s.mu.Lock()
		n += s.tracked
		s.mu.Unlock()
	}
	return n
}
