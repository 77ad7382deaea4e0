// The obs experiment: the observability plane measured on its own
// contract. Each served loopback cell runs the deterministic mixed op
// stream with a metrics registry attached and reports the full registry
// snapshot — server op/byte/error totals, sim-derived op cost, splitfs
// and ext4-dax engine counters, per-source PM traffic — as baseline-
// gated rows: under the sim clock every instrument is an exact function
// of the workload, so the snapshot is pinnable the same way the macro
// counters are. The experiment also enforces the plane's two promises
// in-line: zero drift (two fresh instrumented runs produce identical
// snapshot hashes) and zero overhead (an instrumented run's macro cell
// metrics, simulated ns included, equal an uninstrumented run's exactly
// — attaching the registry must not perturb the op stream).
package harness

import (
	"fmt"
	"slices"
	"strings"

	"splitfs/internal/obs"
	"splitfs/internal/stack"
)

func init() {
	register("obs", "Observability plane: deterministic registry snapshots over the served loopback stream", obsExp)
}

// obsStreamRun builds one backend, optionally attaches a fresh metrics
// registry, runs the deterministic loopback op stream, and returns the
// registry snapshot (nil when not attached) and the stream's macro cell
// metrics — the quantities the zero-overhead assertion compares between
// instrumented and uninstrumented runs, simulated time included.
func obsStreamRun(kind string, attach bool) (obs.Snapshot, []Metric, error) {
	b, err := stack.New(kind, streamSpec())
	if err != nil {
		return nil, nil, err
	}
	var reg *obs.Registry
	if attach {
		reg = obs.NewRegistry()
		b.RegisterObs(reg)
	}
	before := b.Counters()
	ops, err := runServerStream(b.FS, serverStreamOps)
	if err != nil {
		return nil, nil, fmt.Errorf("obs stream %s: %w", kind, err)
	}
	metrics := cellMetrics(ops, before, b.Counters())
	var snap obs.Snapshot
	if reg != nil {
		snap = reg.Snapshot()
	}
	return snap, metrics, nil
}

// obsMetricUnit picks the row unit from the instrument name: byte-named
// instruments report bytes, cost-named ones sim-nanoseconds, the rest
// plain counts.
func obsMetricUnit(name string) string {
	switch {
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.Contains(name, "cost"):
		return "sim-ns"
	default:
		return "count"
	}
}

// obsExp renders the experiment. Every metric row is deterministic and
// baseline-gated (benchfmt gates the whole obs experiment), so a PR that
// changes any instrument's accounting — or the served stack's behavior —
// must explicitly refresh BENCH_baseline.json.
func obsExp() (*Table, error) {
	t := &Table{
		ID:    "obs",
		Title: "Observability plane: deterministic snapshots, zero drift, zero overhead",
		Note: "every row is a registry instrument after the served loopback stream, CI-gated against " +
			"BENCH_baseline.json; drift/overhead are asserted in-experiment (a mismatch fails the run)",
		Headers: []string{"Backend", "ops", "server/ops", "wire KB", "op cost ms", "PM MB", "drift", "overhead"},
	}
	for _, kind := range serverDetBackends {
		served := stack.Name(kind, true, false)
		// Uninstrumented reference run: the cell metrics the
		// instrumented runs must reproduce exactly.
		_, ref, err := obsStreamRun(served, false)
		if err != nil {
			return nil, err
		}
		snap1, d1, err := obsStreamRun(served, true)
		if err != nil {
			return nil, err
		}
		snap2, d2, err := obsStreamRun(served, true)
		if err != nil {
			return nil, err
		}
		if h1, h2 := snap1.Hash(), snap2.Hash(); h1 != h2 {
			return nil, fmt.Errorf("obs %s: snapshot drift across identical runs: %016x vs %016x", kind, h1, h2)
		}
		if !slices.Equal(d1, ref) || !slices.Equal(d2, ref) {
			return nil, fmt.Errorf("obs %s: instrumentation overhead: cell metrics %+v / %+v, uninstrumented %+v",
				kind, d1, d2, ref)
		}
		get := func(name string) int64 {
			m, _ := snap1.Get(name)
			return m.Value
		}
		t.Rows = append(t.Rows, []string{
			kind,
			fmt.Sprintf("%d", serverStreamOps),
			fmt.Sprintf("%d", get("server/ops")),
			f1(float64(get("server/wire_bytes")) / (1 << 10)),
			f2(float64(get("server/op_cost")) / 1e6),
			f2(float64(get("pmem/bytes_written")) / (1 << 20)),
			"none",
			"zero",
		})
		for _, m := range snap1 {
			t.AddMetric(kind+"/"+m.Name, float64(m.Value), obsMetricUnit(m.Name))
		}
	}
	return t, nil
}
