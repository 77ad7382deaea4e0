// Package obs is the observability plane's instrument layer: counters,
// gauges, and fixed-bucket histograms on bare atomics, collected into a
// registry whose snapshots are deterministic (sorted by name, no map
// iteration order anywhere near the output).
//
// The package is stdlib-only and sits in the deterministic set (see
// internal/analysis/determinism): it never reads the wall clock, never
// spawns goroutines, and never emits persistence events. Time-like
// inputs — op cost, fence counts — are injected by callers as monotone
// int64 samples, so under the sim clock every instrument value is an
// exact function of the workload and snapshots are pinnable in
// BENCH_baseline.json; wall-clock feeds are legal only from callers
// already outside the deterministic contract (cmd/splitfsd).
//
// Hot-path rule: an instrument is resolved from the registry once, at
// construction time, and then incremented through its pointer —
// Registry lookups (a mutex and a map) never sit on an op dispatch
// path. Counter/Gauge/Histogram methods are a single atomic RMW each,
// allocation-free.
package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a point-in-time level (open handles, live sessions).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistBuckets is the fixed bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. power-of-two ranges [2^(i-1), 2^i).
// Bucket 0 holds zero and negative observations. 40 buckets cover op
// costs up to ~9 minutes of nanoseconds, far past any op this repo
// models; larger observations clamp into the last bucket.
const HistBuckets = 40

// Histogram is a fixed power-of-two-bucket histogram. Observe is one
// atomic add per field — no locks, no allocation — and the bucket
// layout is fixed at compile time so two processes bucket identically.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
		if b >= HistBuckets {
			b = HistBuckets - 1
		}
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of positive observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Merge folds other's observations into h (detached-session totals).
func (h *Histogram) Merge(other *Histogram) {
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
}

// Instrument kinds, as snapshot strings.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindHist    = "hist"
)

// Bucket is one non-empty histogram bucket in a snapshot: Bit is the
// bits.Len64 bucket index (observations in [2^(Bit-1), 2^Bit)).
type Bucket struct {
	Bit int   `json:"bit"`
	N   int64 `json:"n"`
}

// Metric is one instrument's snapshot row.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   int64    `json:"value"` // counter/gauge value; histogram count
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a deterministic point-in-time reading of a registry:
// rows sorted by name.
type Snapshot []Metric

// Get finds a row by name.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Metric{}, false
}

// Hash returns an FNV-1a digest over the canonical rendering of the
// snapshot, for cheap cross-process identity checks: two runs of a
// deterministic workload must produce equal hashes.
func (s Snapshot) Hash() uint64 {
	var sb strings.Builder
	for _, m := range s {
		fmt.Fprintf(&sb, "%s=%s:%d:%d", m.Name, m.Kind, m.Value, m.Sum)
		for _, b := range m.Buckets {
			fmt.Fprintf(&sb, ";%d:%d", b.Bit, b.N)
		}
		sb.WriteByte('\n')
	}
	return FNV1a(sb.String())
}

// FNV1a is the 64-bit FNV-1a digest of s: the repository's one
// identity hash for golden traces, registry snapshots and flight-record
// path identities. It does not allocate. (The journal and metalog
// checksums are on-media format and have their own.)
func FNV1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// MarshalJSON renders the snapshot as a JSON array in name order.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal([]Metric(s))
}

// entry binds a name to one instrument. Exactly one of the instrument
// fields is set, per kind.
type entry struct {
	name    string
	kind    string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64 // computed gauge, read at snapshot time
}

// Registry is a named collection of instruments. Registration and
// snapshotting lock; reads and writes of the instruments themselves
// never do. Names registered twice return the same instrument, so
// independent subsystems can share a registry without coordination.
type Registry struct {
	// Registration-time only; never held on an op dispatch path. The
	// rank exists so a snapshot taken under another ranked lock is a
	// visible ordering decision, not an accident.
	mu      sync.Mutex // +lockrank:obsreg
	byName  map[string]*entry
	entries []*entry // registration order; snapshots sort a copy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

func (r *Registry) lookup(name, kind string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind}
	switch kind {
	case KindCounter:
		e.counter = &Counter{}
	case KindGauge:
		e.gauge = &Gauge{}
	case KindHist:
		e.hist = &Histogram{}
	}
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.lookup(name, KindCounter).counter }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.lookup(name, KindGauge).gauge }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return r.lookup(name, KindHist).hist }

// Func registers a computed gauge: fn is evaluated at snapshot time.
// Subsystems that already keep atomic counters (pmem device stats,
// splitfs fs stats) export them this way with zero hot-path cost.
// Re-registering a name replaces its function.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != KindGauge || e.fn == nil {
			panic(fmt.Sprintf("obs: %q registered as %s, requested as func gauge", name, e.kind))
		}
		e.fn = fn
		return
	}
	e := &entry{name: name, kind: KindGauge, fn: fn}
	r.byName[name] = e
	r.entries = append(r.entries, e)
}

// Snapshot reads every instrument and returns the rows sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	out := make(Snapshot, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Kind: e.kind}
		switch {
		case e.counter != nil:
			m.Value = e.counter.Load()
		case e.gauge != nil:
			m.Value = e.gauge.Load()
		case e.fn != nil:
			m.Value = e.fn()
		case e.hist != nil:
			m.Value = e.hist.Count()
			m.Sum = e.hist.Sum()
			m.Buckets = HistBucketsOf(e.hist)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistBucketsOf returns a histogram's non-empty buckets in bit order.
func HistBucketsOf(h *Histogram) []Bucket {
	var out []Bucket
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			out = append(out, Bucket{Bit: i, N: n})
		}
	}
	return out
}
