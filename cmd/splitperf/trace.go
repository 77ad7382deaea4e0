package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Op kinds a driver issues across the vfs boundary.
const (
	opRead = iota
	opWrite
	opFsync
	opOpen
	opClose
	opUnlink
	opRename
	opStat
	opTruncate
	opMkdir
	opReadDir
	numOps
)

var opNames = [numOps]string{"read", "write", "fsync", "open", "close",
	"unlink", "rename", "stat", "truncate", "mkdir", "readdir"}

// maxSpans bounds the spans a sampling sink keeps (and the JSONL it
// writes): one expecting more calls keeps every k-th. Per-op counts and
// simulated-time sums stay exact over every traced call regardless.
const maxSpans = 1 << 18

// span is one recorded call at a traced boundary. Times are nanoseconds
// since the tracer's epoch. sim and pm are the simulated-clock and
// device-counter deltas across the call; they are only attributable —
// and only taken — when one goroutine drives the whole stack.
type span struct {
	op         uint8
	start, end int64
	sim        sim.Breakdown
	pm         pmem.Stats
}

// sink collects the spans of one (layer, session) pair. The driver
// flips on per round: traced rounds alternate with pass-through ones
// inside the same run, so tracing overhead is measured against the same
// host state instead of against another process minutes away.
type sink struct {
	tr      *tracer
	layer   string
	session int
	on      atomic.Bool

	// mu orders the server's worker goroutines, which take turns on a
	// session's backend sink; it is uncontended (one op per session is
	// outstanding at a time).
	mu    sync.Mutex
	keep  int64 // keep a full span for every keep-th traced call
	n     int64 // traced calls so far
	spans []span
	count [numOps]int64 // exact, over every traced call
	simNs [numOps]int64
}

// tracer owns the sinks of one run and the counters their spans diff.
type tracer struct {
	epoch time.Time
	clk   *sim.Clock   // nil when several goroutines share the stack
	dev   *pmem.Device // likewise
	sinks []*sink
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sink adds a sink that expects at most calls traced calls. A sampling
// sink keeps at most maxSpans of them; the served workload's sinks keep
// every span, because a backend span's parent is found among the
// client's.
func (t *tracer) sink(layer string, session int, calls int64, sampling bool) *sink {
	s := &sink{tr: t, layer: layer, session: session, keep: 1}
	if sampling {
		s.keep += calls / maxSpans
	}
	s.spans = make([]span, 0, calls/s.keep+1)
	t.sinks = append(t.sinks, s)
	return s
}

// tick carries one call's starting state from begin to end.
type tick struct {
	traced, kept bool
	sim0         int64
	sp           span
}

func (s *sink) begin() (tk tick) {
	if !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.n++
	tk.kept = s.n%s.keep == 0
	s.mu.Unlock()
	tk.traced = true
	if clk := s.tr.clk; clk != nil {
		tk.sim0 = clk.Now()
		if tk.kept {
			tk.sp.sim = clk.Snapshot()
			tk.sp.pm = s.tr.dev.Stats()
		}
	}
	if tk.kept {
		tk.sp.start = int64(time.Since(s.tr.epoch))
	}
	return
}

func (s *sink) end(op uint8, tk *tick) {
	if !tk.traced {
		return
	}
	if tk.kept {
		tk.sp.end = int64(time.Since(s.tr.epoch))
	}
	var simNs int64
	if clk := s.tr.clk; clk != nil {
		simNs = clk.Now() - tk.sim0
		if tk.kept {
			tk.sp.sim = clk.Snapshot().Sub(tk.sp.sim)
			tk.sp.pm = subPM(s.tr.dev.Stats(), tk.sp.pm)
		}
	}
	s.mu.Lock()
	s.count[op]++
	s.simNs[op] += simNs
	if tk.kept && len(s.spans) < cap(s.spans) {
		tk.sp.op = op
		s.spans = append(s.spans, tk.sp)
	}
	s.mu.Unlock()
}

func subPM(a, b pmem.Stats) pmem.Stats {
	return pmem.Stats{
		BytesWrittenNT:     a.BytesWrittenNT - b.BytesWrittenNT,
		BytesWrittenCached: a.BytesWrittenCached - b.BytesWrittenCached,
		BytesRead:          a.BytesRead - b.BytesRead,
		Flushes:            a.Flushes - b.Flushes,
		Fences:             a.Fences - b.Fences,
		LinesPersisted:     a.LinesPersisted - b.LinesPersisted,
	}
}

// syncAllFS is what both traced boundaries wrap: splitfs.FS below the
// server and server.Client (or splitfs.FS itself) below the driver all
// have SyncAll, and the server feature-detects it on its backend, so
// the decorator must keep it.
type syncAllFS interface {
	vfs.FileSystem
	SyncAll() error
}

// tracedFS decorates a file system with one span per call. sinkFor
// picks the sink from the path (the backend sees every tenant's paths);
// files remember the sink they were opened under.
type tracedFS struct {
	inner   syncAllFS
	sinkFor func(path string) *sink
}

func (t *tracedFS) Name() string { return t.inner.Name() }

func (t *tracedFS) SyncAll() error { return t.inner.SyncAll() }

func (t *tracedFS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	s := t.sinkFor(path)
	tk := s.begin()
	f, err := t.inner.OpenFile(path, flag, perm)
	s.end(opOpen, &tk)
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{File: f, s: s}
	// The server grants leases only on files that are vfs.Mappable;
	// mapped loads are plain memory accesses and get no span, so a
	// leased read shows as a client span without a backend child.
	if m, ok := f.(vfs.Mappable); ok {
		return &tracedMappable{tracedFile: tf, Mappable: m}, nil
	}
	return tf, nil
}

func (t *tracedFS) Mkdir(path string, perm uint32) error {
	s := t.sinkFor(path)
	tk := s.begin()
	err := t.inner.Mkdir(path, perm)
	s.end(opMkdir, &tk)
	return err
}

func (t *tracedFS) Unlink(path string) error {
	s := t.sinkFor(path)
	tk := s.begin()
	err := t.inner.Unlink(path)
	s.end(opUnlink, &tk)
	return err
}

func (t *tracedFS) Rmdir(path string) error { return t.inner.Rmdir(path) }

func (t *tracedFS) Rename(oldPath, newPath string) error {
	s := t.sinkFor(oldPath)
	tk := s.begin()
	err := t.inner.Rename(oldPath, newPath)
	s.end(opRename, &tk)
	return err
}

func (t *tracedFS) Stat(path string) (vfs.FileInfo, error) {
	s := t.sinkFor(path)
	tk := s.begin()
	fi, err := t.inner.Stat(path)
	s.end(opStat, &tk)
	return fi, err
}

func (t *tracedFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	s := t.sinkFor(path)
	tk := s.begin()
	es, err := t.inner.ReadDir(path)
	s.end(opReadDir, &tk)
	return es, err
}

// tracedFile decorates an open file; Seek and Path pass straight
// through the embedded File.
type tracedFile struct {
	vfs.File
	s *sink
}

// tracedMappable is a tracedFile whose inner file can be leased.
type tracedMappable struct {
	*tracedFile
	vfs.Mappable
}

func (f *tracedFile) Read(p []byte) (int, error) {
	tk := f.s.begin()
	n, err := f.File.Read(p)
	f.s.end(opRead, &tk)
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	tk := f.s.begin()
	n, err := f.File.Write(p)
	f.s.end(opWrite, &tk)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	tk := f.s.begin()
	n, err := f.File.ReadAt(p, off)
	f.s.end(opRead, &tk)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	tk := f.s.begin()
	n, err := f.File.WriteAt(p, off)
	f.s.end(opWrite, &tk)
	return n, err
}

func (f *tracedFile) Truncate(size int64) error {
	tk := f.s.begin()
	err := f.File.Truncate(size)
	f.s.end(opTruncate, &tk)
	return err
}

func (f *tracedFile) Sync() error {
	tk := f.s.begin()
	err := f.File.Sync()
	f.s.end(opFsync, &tk)
	return err
}

func (f *tracedFile) Close() error {
	tk := f.s.begin()
	err := f.File.Close()
	f.s.end(opClose, &tk)
	return err
}

func (f *tracedFile) Stat() (vfs.FileInfo, error) {
	tk := f.s.begin()
	fi, err := f.File.Stat()
	f.s.end(opStat, &tk)
	return fi, err
}

// link resolves parents: a backend span lying inside a front span of
// the same session is that span's child (each session has one op
// outstanding). It returns, per front sink, the self time of every
// front span that has children (front duration minus the children's),
// and marks childless front reads as leased.
type linked struct {
	parent map[*span]*span
	self   []int64 // ns, front spans with at least one child
	leased map[*span]bool
}

func (t *tracer) link() linked {
	l := linked{parent: map[*span]*span{}, leased: map[*span]bool{}}
	for _, back := range t.sinks {
		if back.layer != "backend" {
			continue
		}
		var front *sink
		for _, s := range t.sinks {
			if s.layer == "client" && s.session == back.session {
				front = s
			}
		}
		if front == nil {
			continue
		}
		child := make([]int64, len(front.spans))
		for i := range back.spans {
			b := &back.spans[i]
			// The last front span starting at or before b.
			j := sort.Search(len(front.spans), func(k int) bool { return front.spans[k].start > b.start }) - 1
			if j >= 0 && b.end <= front.spans[j].end {
				l.parent[b] = &front.spans[j]
				child[j] += b.end - b.start
			}
		}
		for j := range front.spans {
			f := &front.spans[j]
			switch {
			case child[j] > 0:
				l.self = append(l.self, f.end-f.start-child[j])
			case f.op == opRead:
				l.leased[f] = true
			}
		}
	}
	return l
}

// write dumps every kept span as one JSON object per line.
func (t *tracer) write(path string, l linked) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	// Parents before children: the backend sinks go last.
	sinks := append([]*sink(nil), t.sinks...)
	sort.SliceStable(sinks, func(i, j int) bool { return sinks[i].layer != "backend" && sinks[j].layer == "backend" })
	ids := map[*span]int64{}
	var next int64
	for _, s := range sinks {
		for i := range s.spans {
			next++
			ids[&s.spans[i]] = next
		}
	}
	var b []byte
	for _, s := range sinks {
		for i := range s.spans {
			sp := &s.spans[i]
			b = b[:0]
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, ids[sp], 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendInt(b, ids[l.parent[sp]], 10)
			b = append(b, `,"layer":"`...)
			b = append(b, s.layer...)
			b = append(b, `","session":`...)
			b = strconv.AppendInt(b, int64(s.session), 10)
			b = append(b, `,"op":"`...)
			b = append(b, opNames[sp.op]...)
			b = append(b, `","start_ns":`...)
			b = strconv.AppendInt(b, sp.start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, sp.end, 10)
			if l.leased[sp] {
				b = append(b, `,"leased":true`...)
			}
			if t.clk != nil {
				b = append(b, `,"sim_ns":`...)
				b = strconv.AppendInt(b, sp.sim.Total, 10)
				for _, c := range sim.Categories() {
					if v := sp.sim.ByCat[c]; v != 0 {
						b = append(b, `,"sim.`...)
						b = append(b, c.String()...)
						b = append(b, `":`...)
						b = strconv.AppendInt(b, v, 10)
					}
				}
				b = append(b, `,"pm_bytes_written":`...)
				b = strconv.AppendInt(b, sp.pm.BytesWritten(), 10)
				b = append(b, `,"pm_bytes_read":`...)
				b = strconv.AppendInt(b, sp.pm.BytesRead, 10)
				b = append(b, `,"pm_flushes":`...)
				b = strconv.AppendInt(b, sp.pm.Flushes, 10)
				b = append(b, `,"pm_fences":`...)
				b = strconv.AppendInt(b, sp.pm.Fences, 10)
			}
			b = append(b, "}\n"...)
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
