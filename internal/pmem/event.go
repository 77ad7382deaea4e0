package pmem

// Persistence-event trace and crash record/replay (see DESIGN.md,
// "Persistence events").
//
// Every operation that can change the device's *crash image* — the bytes
// a power failure at that instant would leave on media — is a
// persistence event, numbered by a monotone counter:
//
//	Store    content of a tearable (dirty) line changed
//	StoreNT  content of a tearable (pending) line changed
//	Flush    dirty lines moved to the write-pending queue
//	Fence    the write-pending queue drained to media
//
// Buffered stores (StoreBuffered, the jbd2 page-cache model) are NOT
// events: their lines always revert wholly on crash, so the crash image
// before and after one is identical.
//
// The facility is record/replay shaped. A recording run executes a
// workload once with no crash and observes Events() and an optional
// Trace(). A replay run arms ArmCrash(k, rng) before the workload: when
// event k completes, the device freezes its durable image — torn
// unfenced words are materialized immediately, deterministically, in the
// undo slots, which from then on are kept instead of released — and
// execution continues unharmed on the volatile view, so the replay stays
// bit-identical to the recording. A later Crash() call then rewinds the
// volatile view to the frozen image.
//
// Determinism requirements: the workload must be single-threaded (event
// numbering is interleaving-dependent), and torn-word injection visits
// unpersisted lines in ascending order (shard by shard, each shard's dense
// state array in index order) so one seed always yields one image.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"splitfs/internal/sim"
)

// EventKind classifies a persistence event.
type EventKind uint8

const (
	EvStore EventKind = iota
	EvStoreNT
	EvFlush
	EvFence
	evKinds
)

// Known reports whether the kind is one this package defines. Consumers
// bucketing events by kind (coverage stats, summaries) must check this
// and surface unknown kinds loudly instead of silently mis-bucketing
// them — a new kind added here is a signal every table needs updating.
func (k EventKind) Known() bool { return k < evKinds }

// String names the kind for reports. Unknown kinds keep their numeric
// value visible so they cannot be silently confused with known ones.
func (k EventKind) String() string {
	switch k {
	case EvStore:
		return "store"
	case EvStoreNT:
		return "storent"
	case EvFlush:
		return "flush"
	case EvFence:
		return "fence"
	default:
		return fmt.Sprintf("unknown-kind-%d", uint8(k))
	}
}

// EventSource labels which execution context issued a persistence event.
// U-Split's fsync issues stores, fences, and journal commits from its
// relink and reclaim stages; tagging events with their source lets the
// crash harness's coverage stats distinguish foreground syscall events
// from those. The source is device-global state: it is exact when
// one goroutine drives the stack, which is what record/replay requires
// anyway.
type EventSource uint8

const (
	// SrcForeground is the default: the event came from the thread
	// executing the workload's syscall.
	SrcForeground EventSource = iota
	// SrcRelinkWorker marks events issued while an fsync's relink steps
	// and group commit were executing.
	SrcRelinkWorker
	// SrcReclaim marks events issued by epoch-based staging-file
	// reclamation (unmap, unlink of retired staging files).
	SrcReclaim
	evSources
)

// Known reports whether the source is one this package defines.
func (s EventSource) Known() bool { return s < evSources }

// String names the source for reports.
func (s EventSource) String() string {
	switch s {
	case SrcForeground:
		return "fg"
	case SrcRelinkWorker:
		return "relink"
	case SrcReclaim:
		return "reclaim"
	default:
		return fmt.Sprintf("unknown-src-%d", uint8(s))
	}
}

// Event is one recorded persistence event.
type Event struct {
	Seq  int64 // 1-based monotone sequence number
	Kind EventKind
	Src  EventSource  // execution context (foreground, relink worker, ...)
	Cat  sim.Category // clock category of the triggering operation
	Off  int64        // affected device range (zero-length for fences)
	Len  int64
}

// EventStats breaks down the event counter by kind.
type EventStats struct {
	Stores   int64
	StoresNT int64
	Flushes  int64
	Fences   int64
}

// Total sums the per-kind counts.
func (s EventStats) Total() int64 { return s.Stores + s.StoresNT + s.Flushes + s.Fences }

// eventState holds the record/replay machinery; it lives behind its own
// lock so the always-on counter stays a bare atomic. hooks mirrors
// "tracing || armed || fence filter installed" so the per-event fast
// path — every Store/StoreNT/Flush/Fence on the device — can skip the
// lock entirely when no harness is attached, preserving the sharded
// device's scalability for ordinary multi-threaded workloads.
type eventState struct {
	hooks atomic.Bool

	mu      sync.Mutex // +lockrank:pmevent
	tracing bool
	trace   []Event

	armedAt int64    // crash event; 0 = disarmed
	rng     *sim.RNG // torn-word seed for the armed crash

	fenceFilter func(seq int64) bool // test hook: true = drop this fence
	fenceSeq    int64
}

// refreshHooks recomputes the fast-path flag. Caller holds ev.mu.
func (ev *eventState) refreshHooks() {
	ev.hooks.Store(ev.tracing || ev.armedAt != 0 || ev.fenceFilter != nil)
}

// Events returns the number of persistence events so far.
func (d *Device) Events() int64 { return d.events.Load() }

// WithEventSource runs fn with s as the source label of the persistence
// events it issues, and puts the previous label back when fn returns or
// panics — so a stage's label cannot leak past it. The label is
// device-global; with several goroutines driving the stack it is
// best-effort. Record/replay runs one goroutine, so exactly one issues
// events at a time and the label is exact.
func (d *Device) WithEventSource(s EventSource, fn func()) {
	prev := d.evSrc.Swap(uint32(s))
	defer d.evSrc.Store(prev)
	fn()
}

// EventStats returns the per-kind event counts.
func (d *Device) EventStats() EventStats {
	return EventStats{
		Stores:   d.evKind[EvStore].Load(),
		StoresNT: d.evKind[EvStoreNT].Load(),
		Flushes:  d.evKind[EvFlush].Load(),
		Fences:   d.evKind[EvFence].Load(),
	}
}

// SetTracing enables (or disables) full event recording; enabling resets
// the trace. Tracing is for recording runs only — it grows without bound.
func (d *Device) SetTracing(on bool) {
	d.ev.mu.Lock()
	d.ev.tracing = on
	d.ev.trace = nil
	d.ev.refreshHooks()
	d.ev.mu.Unlock()
}

// Trace returns the events recorded since tracing was enabled.
func (d *Device) Trace() []Event {
	d.ev.mu.Lock()
	defer d.ev.mu.Unlock()
	return append([]Event(nil), d.ev.trace...)
}

// ArmCrash schedules a crash at persistence event k (which must be in
// the future): when event k completes, the device freezes its durable
// image, materializing torn unfenced lines with rng (nil = every
// unpersisted line reverts wholly; buffered lines always revert).
// Execution continues on the volatile view so replay runs stay
// bit-identical to recording runs; a subsequent Crash() rewinds to the
// frozen image. Panics without TrackPersistence.
func (d *Device) ArmCrash(k int64, rng *sim.RNG) {
	if !d.cfg.TrackPersistence {
		panic("pmem: ArmCrash without TrackPersistence")
	}
	d.ev.mu.Lock()
	d.ev.armedAt = k
	d.ev.rng = rng
	d.ev.refreshHooks()
	d.ev.mu.Unlock()
}

// CrashFired reports whether an armed crash point has been reached (the
// durable image is frozen).
func (d *Device) CrashFired() bool { return d.frozen.Load() }

// SetFenceFilter installs a fault-injection hook for tests: each Fence
// calls f with a 1-based fence sequence number, and a true return makes
// that fence a no-op for durability (the write-pending queue is NOT
// drained), modeling a missing sfence. The fence still counts as a
// persistence event and charges the clock. Pass nil to remove the hook,
// which also resets the sequence.
func (d *Device) SetFenceFilter(f func(seq int64) bool) {
	d.ev.mu.Lock()
	d.ev.fenceFilter = f
	d.ev.fenceSeq = 0
	d.ev.refreshHooks()
	d.ev.mu.Unlock()
}

// dropFence reports whether the fence filter suppresses this fence.
func (d *Device) dropFence() bool {
	if !d.ev.hooks.Load() {
		return false
	}
	d.ev.mu.Lock()
	defer d.ev.mu.Unlock()
	if d.ev.fenceFilter == nil {
		return false
	}
	d.ev.fenceSeq++
	return d.ev.fenceFilter(d.ev.fenceSeq)
}

// event records one persistence event and fires the armed crash when its
// sequence number comes up. The lock-free fast path keeps event counting
// from re-serializing the sharded device when no harness is attached.
func (d *Device) event(kind EventKind, cat sim.Category, off, n int64) {
	seq := d.events.Add(1)
	d.evKind[kind].Add(1)
	if !d.ev.hooks.Load() {
		return
	}
	d.ev.mu.Lock()
	if d.ev.tracing {
		d.ev.trace = append(d.ev.trace, Event{Seq: seq, Kind: kind,
			Src: EventSource(d.evSrc.Load()), Cat: cat, Off: off, Len: n})
	}
	fire := d.ev.armedAt != 0 && seq == d.ev.armedAt
	rng := d.ev.rng
	d.ev.mu.Unlock()
	if fire {
		d.freeze(rng)
	}
}

// freeze materializes the crash image at the current instant: torn
// unfenced words are written into the undo slots now, and the frozen flag
// makes every later fence keep its slots instead of releasing them, so
// "volatile view with the slots applied" stays this image however far the
// workload runs on. The volatile view is untouched, so the workload keeps
// executing exactly as in a recording run.
func (d *Device) freeze(rng *sim.RNG) {
	d.lockAll()
	defer d.unlockAll()
	if d.frozen.Load() {
		return
	}
	for i := range d.shards {
		d.shards[i].tear(rng)
	}
	d.frozen.Store(true)
}

// tear applies the torn-word crash model to the shard's unpersisted
// lines: a word that reached the media is copied from the volatile view
// into the line's undo slot, i.e. into the durable image. Buffered
// (journaled-metadata) lines always revert: real jbd2 keeps uncommitted
// metadata in the DRAM page cache, so it can never reach the media. The
// state array is walked in index order, so lines are visited ascending
// and a given rng seed always produces the same image. Caller holds the
// shard's lock.
func (s *shard) tear(rng *sim.RNG) {
	if rng == nil || s.tracked == 0 {
		return
	}
	left := s.tracked
	for ln, st := range s.state {
		if st == 0 {
			continue
		}
		if st != lineBuffered {
			live := s.line(int64(ln))
			durable := s.undo[int(s.slot[ln]-1)*sim.CacheLine:]
			for w := 0; w < sim.CacheLine; w += 8 {
				// Branch-free select: the coin is random, so a branch on it
				// mispredicts every other word.
				lost := -(rng.Uint64() & 1) // all ones: the word did not reach the media
				d := binary.LittleEndian.Uint64(durable[w:])
				v := binary.LittleEndian.Uint64(live[w:])
				binary.LittleEndian.PutUint64(durable[w:], d&lost|v&^lost)
			}
		}
		if left--; left == 0 {
			break
		}
	}
}
