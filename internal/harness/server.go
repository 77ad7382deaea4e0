// The server experiment: the multi-tenant file service (internal/server)
// measured against its backend. It runs one deterministic mixed op
// stream per backend three ways — directly, through a served: session,
// and through a served-lease: one — and reports the same counter set the
// macro matrix pins; because the loopback transport executes requests
// inline, the served counters must equal the direct ones exactly, and CI
// gates the loopback and lease cells against BENCH_baseline.json.
package harness

import (
	"fmt"
	"maps"
	"slices"

	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

func init() {
	register("server", "Multi-tenant file service: served-vs-direct determinism", serverExp)
}

// serverDetBackends are the loopback-determinism cells (one journaling
// stack, one log-structured one keeps the gated row count modest).
var serverDetBackends = []string{"ext4-dax", "splitfs-strict"}

// serverStreamOps is the deterministic loopback op stream length.
const serverStreamOps = 400

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
	before, mark := b.Counters(), markRows(b.Clock)
	ops, err := runServerStream(b.FS, serverStreamOps)
	if err != nil {
		return nil, fmt.Errorf("server stream %s: %w", kind, err)
	}
	after := b.Counters()
	mark.report("stream/"+kind, ops)
	cell := &MacroCell{Backend: kind, Workload: "stream", Ops: ops,
		Metrics: cellMetrics(ops, before, after)}
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

// serverExp renders the experiment table and metrics. The loopback and
// lease rows are baseline-gated (prefixes "loopback/" and "lease/").
func serverExp() (*Table, error) {
	t := &Table{
		ID:      "server",
		Title:   "Multi-tenant file service: loopback determinism",
		Note:    "loopback and lease counters are deterministic and CI-gated against BENCH_baseline.json",
		Headers: []string{"Cell", "Backend", "ops", "fences/op", "commits", "PM MB"},
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
			})
			for _, mm := range cell.Metrics {
				t.AddMetric(c.label+"/"+kind+"/"+mm.Name, mm.Value, mm.Unit)
			}
		}
	}
	return t, nil
}
