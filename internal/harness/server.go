// The sessions half measures wall-clock throughput over concurrent
// client goroutines by design:
//
// +determinism:wallclock
// +determinism:concurrent

// The server experiment: the multi-tenant file service (internal/server)
// measured two ways. The loopback half runs one deterministic mixed op
// stream twice per backend — directly, and through a served: session —
// and reports the same counter set the macro matrix pins; because the
// loopback transport executes requests inline, the served counters must
// equal the direct ones exactly, and CI gates the loopback cells against
// BENCH_baseline.json. The sessions half is concurrent mode: N stream
// sessions (net.Pipe) drive one splitfs-strict instance through the
// dispatch pool, reporting aggregate wall-clock throughput — the
// many-clients deployment the paper's user-space service implies (§3),
// exercising the PR 1 lock decomposition and PR 3 group commit across
// sessions.
package harness

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"time"

	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

func init() {
	register("server", "Multi-tenant file service: served-vs-direct determinism + session scaling", serverExp)
}

// serverDetBackends are the loopback-determinism cells (one journaling
// stack, one log-structured one keeps the gated row count modest).
var serverDetBackends = []string{"ext4-dax", "splitfs-strict"}

// serverSessionCounts is the concurrent-session sweep.
var serverSessionCounts = []int{1, 2, 4, 8}

const (
	serverStreamOps  = 400 // deterministic loopback op stream length
	serverSessionOps = 160 // ops per session in the concurrent sweep
)

// streamSpec sizes the loopback stream cells (server and obs experiments).
func streamSpec() stack.Spec {
	spec := stack.Small
	spec.DevBytes = 64 << 20
	spec.USplit = splitfs.Config{StagingFiles: 8, StagingFileBytes: 1 << 20, OpLogBytes: 2 << 20}
	return spec
}

// runServerStream issues the deterministic mixed op stream against any
// vfs.FileSystem: creates, appends, overwrites, fsyncs, reads, group
// syncs, renames, and unlinks over a small working set. Returns the op
// count (every loop iteration is one op).
func runServerStream(fs vfs.FileSystem, nops int) (int64, error) {
	rng := sim.NewRNG(4242)
	handles := map[string]vfs.File{}
	sizes := map[string]int64{}
	next := 0
	defer func() {
		// Close in sorted path order: a map range here would emit the
		// backends' close-time persistence events in a random order.
		for _, p := range slices.Sorted(maps.Keys(handles)) {
			handles[p].Close()
		}
	}()
	openf := func(p string) (vfs.File, error) {
		if f, ok := handles[p]; ok {
			return f, nil
		}
		f, err := fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err == nil {
			handles[p] = f
		}
		return f, err
	}
	livePaths := func() []string {
		var out []string
		for i := 0; i < next; i++ {
			p := fmt.Sprintf("/w%d", i)
			if _, ok := sizes[p]; ok {
				out = append(out, p)
			}
		}
		return out
	}
	for op := 0; op < nops; op++ {
		live := livePaths()
		roll := rng.Intn(100)
		if len(live) == 0 {
			roll = 0
		}
		switch {
		case roll < 55: // write (append, sometimes in place), periodic fsync
			var p string
			if len(live) > 0 && rng.Intn(4) != 0 {
				p = live[rng.Intn(len(live))]
			} else {
				p = fmt.Sprintf("/w%d", next)
				next++
				sizes[p] = 0
			}
			f, err := openf(p)
			if err != nil {
				return 0, err
			}
			data := make([]byte, rng.Intn(2048)+1)
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			off := sizes[p]
			if off > 0 && rng.Intn(4) == 0 {
				off = rng.Int63n(off)
			}
			if _, err := f.WriteAt(data, off); err != nil {
				return 0, err
			}
			if end := off + int64(len(data)); end > sizes[p] {
				sizes[p] = end
			}
			if rng.Intn(4) == 0 {
				if err := f.Sync(); err != nil {
					return 0, err
				}
			}
		case roll < 75: // readback
			p := live[rng.Intn(len(live))]
			if _, err := vfs.ReadFile(fs, p); err != nil {
				return 0, err
			}
		case roll < 85: // rename to a fresh name
			src := live[rng.Intn(len(live))]
			dst := fmt.Sprintf("/w%d", next)
			next++
			if err := fs.Rename(src, dst); err != nil {
				return 0, err
			}
			sizes[dst] = sizes[src]
			delete(sizes, src)
			if f, ok := handles[src]; ok {
				handles[dst] = f
				delete(handles, src)
			}
		case roll < 92: // unlink (close first)
			p := live[rng.Intn(len(live))]
			if f, ok := handles[p]; ok {
				if err := f.Close(); err != nil {
					return 0, err
				}
				delete(handles, p)
			}
			if err := fs.Unlink(p); err != nil {
				return 0, err
			}
			delete(sizes, p)
		default:
			// Group sync, as the served session and the crash runner issue
			// it, so direct and served cells run identical operation
			// sequences on every backend.
			files := make([]vfs.File, 0, len(handles))
			for _, p := range slices.Sorted(maps.Keys(handles)) {
				files = append(files, handles[p])
			}
			if err := vfs.SyncAll(fs, files); err != nil {
				return 0, err
			}
		}
	}
	return int64(nops), nil
}

// ServerStreamCell runs the deterministic stream on one backend kind
// (direct, served:, or served-lease:) and returns the macro-style
// counter metrics. Served cells additionally report the client's
// data-plane byte routing: on a served-lease: cell, leased_read_bytes
// is the zero-copy volume and read_wire_bytes must sit at ~0 — the
// copy-path bytes a lease failed to absorb.
func ServerStreamCell(kind string) (*MacroCell, error) {
	b, err := stack.New(kind, streamSpec())
	if err != nil {
		return nil, err
	}
	before := b.Counters()
	start := time.Now()
	ops, err := runServerStream(b.FS, serverStreamOps)
	wallNs := time.Since(start).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("server stream %s: %w", kind, err)
	}
	after := b.Counters()
	cell := &MacroCell{Backend: kind, Workload: "stream", Ops: ops,
		Metrics: cellMetrics(ops, before, after)}
	cell.Metrics = append(cell.Metrics,
		Metric{Name: "wall_ns_per_op", Value: float64(wallNs) / float64(ops), Unit: "ns/op-wall"})
	if cl, ok := b.FS.(*server.Client); ok {
		cs := cl.Stats()
		cell.Metrics = append(cell.Metrics,
			Metric{Name: "lease_grants", Value: float64(cs.LeaseGrants), Unit: "count"},
			Metric{Name: "leased_read_bytes", Value: float64(cs.LeasedReadBytes), Unit: "bytes"},
			Metric{Name: "leased_write_bytes", Value: float64(cs.LeasedWriteBytes), Unit: "bytes"},
			Metric{Name: "read_wire_bytes", Value: float64(cs.WireReadBytes), Unit: "bytes"},
			Metric{Name: "write_wire_bytes", Value: float64(cs.WireWriteBytes), Unit: "bytes"},
		)
	}
	return cell, nil
}

// ServedSessionsResult is one concurrent-session measurement: a
// concurrent run with one worker per session, and the device fences and
// journal commits it cost.
type ServedSessionsResult struct {
	ConcurrentResult
	Fences, Commits int64
}

// RunServedSessions drives n concurrent stream-transport sessions, each
// in its own subtree, over one served backend instance.
func RunServedSessions(kind string, n, opsPerSession int) (ServedSessionsResult, error) {
	spec := stack.Small
	spec.DevBytes = 256 << 20
	spec.USplit = splitfs.Config{StagingFiles: 4 * n, StagingFileBytes: 1 << 20, OpLogBytes: 4 << 20}
	b, err := stack.New(kind, spec)
	if err != nil {
		return ServedSessionsResult{}, err
	}
	srv := server.New(b.FS, server.Config{})
	defer srv.Close()
	for i := 0; i < n; i++ {
		if err := b.FS.Mkdir(fmt.Sprintf("/s%d", i), 0755); err != nil {
			return ServedSessionsResult{}, err
		}
	}
	before := b.Counters()
	r, err := (&ConcurrentWorkload{b, n, opsPerSession, func(i int) error {
		cs, ss := net.Pipe()
		go srv.ServeConn(ss)
		c, err := server.DialConfig(cs, server.ClientConfig{Root: fmt.Sprintf("/s%d", i)})
		if err != nil {
			return err
		}
		defer c.Close()
		f, err := c.OpenFile("/data", vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			return err
		}
		defer f.Close()
		blk := make([]byte, 1024)
		for op := 0; op < opsPerSession; op++ {
			if _, err := f.Write(blk); err != nil {
				return err
			}
			if op%8 == 7 {
				if err := f.Sync(); err != nil {
					return err
				}
			}
		}
		return f.Sync()
	}}).Run()
	if err != nil {
		return ServedSessionsResult{}, err
	}
	after := b.Counters()
	return ServedSessionsResult{r, after.Dev.Fences - before.Dev.Fences, after.Commits - before.Commits}, nil
}

// serverExp renders the experiment table and metrics. Loopback rows are
// deterministic and baseline-gated (prefix "loopback/"); the session
// sweep is wall-clock and ungated.
func serverExp() (*Table, error) {
	t := &Table{
		ID:    "server",
		Title: "Multi-tenant file service: loopback determinism + concurrent sessions",
		Note: "loopback counters are deterministic and CI-gated against BENCH_baseline.json; " +
			"session throughput is wall clock (needs GOMAXPROCS >= sessions to scale)",
		Headers: []string{"Cell", "Backend", "ops", "fences/op", "commits", "PM MB", "Kops/s (wall)"},
	}
	for _, kind := range serverDetBackends {
		for _, c := range []struct {
			label          string
			served, leases bool
		}{{"direct", false, false}, {"loopback", true, false}, {"lease", true, true}} {
			cell, err := ServerStreamCell(stack.Name(kind, c.served, c.leases))
			if err != nil {
				return nil, err
			}
			m := values(cell.Metrics)
			t.Rows = append(t.Rows, []string{
				c.label, kind, fmt.Sprintf("%d", cell.Ops),
				f2(m["fences_per_op"]),
				fmt.Sprintf("%.0f", m["journal_commits"]),
				f2(m["pm_bytes"] / (1 << 20)),
				"-",
			})
			for _, mm := range cell.Metrics {
				t.AddMetric(c.label+"/"+kind+"/"+mm.Name, mm.Value, mm.Unit)
			}
		}
	}
	for _, n := range serverSessionCounts {
		r, err := RunServedSessions("splitfs-strict", n, serverSessionOps)
		if err != nil {
			return nil, fmt.Errorf("served sessions x%d: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("sessions x%d", n), "splitfs-strict",
			fmt.Sprintf("%d", r.Ops),
			f2(float64(r.Fences) / float64(r.Ops)),
			fmt.Sprintf("%d", r.Commits),
			"-",
			f1(r.WallKops()),
		})
		t.AddMetric(fmt.Sprintf("sessions/splitfs-strict/t%d_kops_wall", n), r.WallKops(), "kops/s-wall")
	}
	return t, nil
}
