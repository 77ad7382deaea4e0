package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"splitfs/internal/apps/aofstore"
	"splitfs/internal/apps/lsmkv"
	"splitfs/internal/apps/waldb"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
	"splitfs/internal/wl/tpcc"
	"splitfs/internal/wl/utilsim"
	"splitfs/internal/wl/ycsb"
)

// This file reproduces the application-level artifacts: Table 7 (Strata
// vs SplitFS on YCSB), Figure 5 (software overhead in applications), and
// Figure 6 (real application performance, data- and metadata-heavy).

const appDev = 1 << 30

func init() {
	register("table7", "SplitFS-strict vs Strata on YCSB/LevelDB (paper Table 7)", table7)
	register("fig5", "Relative file-system software overhead in applications (paper Figure 5)", fig5)
	register("fig6", "Application performance across guarantee levels (paper Figure 6)", fig6)
}

func ycsbCfg() ycsb.Config {
	return ycsb.Config{Records: 1500, Operations: 2500, ValueBytes: 1000, Seed: 11}
}

func lsmOpts() lsmkv.Options {
	// YCSB's default LevelDB WriteOptions does not sync the WAL per put;
	// durability comes from memtable flushes, as in the paper's runs.
	return lsmkv.Options{MemtableBytes: 1 << 20, SyncWrites: false}
}

// runYCSB loads a store and runs one workload, returning Kops/s of the
// run phase.
func runYCSB(kind string, w ycsb.Workload) (float64, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return 0, err
	}
	db, err := lsmkv.Open(e.FS, lsmOpts())
	if err != nil {
		return 0, err
	}
	defer db.Close()
	cfg := ycsbCfg()
	if w == ycsb.E {
		cfg.Operations /= 2 // paper: 500K ops for E vs 1M elsewhere
	}
	if _, err := ycsb.Load(db, cfg); err != nil {
		return 0, err
	}
	var ops int64
	d, err := measure(e.Clock, "ycsb_"+strings.ToLower(string(w))+"/"+kind, int64(cfg.Operations), func() error {
		st, err := ycsb.Run(db, w, cfg)
		ops = st.Ops()
		return err
	})
	if err != nil {
		return 0, err
	}
	return kops(ops, d.Total), nil
}

func table7() (*Table, error) {
	t := &Table{
		ID:      "table7",
		Title:   "YCSB on LevelDB: Strata vs SplitFS-strict",
		Headers: []string{"Workload", "Strata (Kops/s)", "SplitFS-strict (Kops/s)", "SplitFS/Strata"},
	}
	var strata, rel []float64
	for _, w := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.D, ycsb.E, ycsb.F} {
		st, err := runYCSB("strata", w)
		if err != nil {
			return nil, fmt.Errorf("strata %c: %w", w, err)
		}
		sp, err := runYCSB("splitfs-strict", w)
		if err != nil {
			return nil, fmt.Errorf("splitfs %c: %w", w, err)
		}
		run := "run_" + string(w)
		t.AddMetric(run+"/strata", st, "Kops/s")
		t.AddMetric(run+"/splitfs-strict", sp, "Kops/s")
		addRatio(t, run, "splitfs-strict", "strata", sp, st)
		strata, rel = append(strata, st), append(rel, sp/st)
		t.Rows = append(t.Rows, []string{"Run " + string(w), f1(st), f1(sp), xf(sp / st)})
	}
	// The paper states ranges across the workloads.
	t.AddMetric("min/strata", slices.Min(strata), "Kops/s")
	t.AddMetric("max/strata", slices.Max(strata), "Kops/s")
	t.AddMetric("min/splitfs-strict_vs_strata", slices.Min(rel), "x")
	t.AddMetric("max/splitfs-strict_vs_strata", slices.Max(rel), "x")
	return t, nil
}

// tpccTx is the TPC-C transactions Figures 5 and 6 run.
const tpccTx = 400

// tpccBench opens a waldb store on fs and populates it for TPC-C. The
// caller closes the store.
func tpccBench(fs vfs.FileSystem) (*tpcc.Bench, *waldb.DB, error) {
	db, err := waldb.Open(fs, waldb.Options{})
	if err != nil {
		return nil, nil, err
	}
	b, err := tpcc.New(tpcc.Wrap(db), tpcc.Config{Warehouses: 1, Districts: 4, Customers: 60, Items: 200})
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return b, db, nil
}

// fig5Pairs are Figure 5's comparisons: each baseline of a level against
// SplitFS at that level.
func fig5Pairs() (pairs [][2]string) {
	for _, l := range levels() {
		kinds := withoutStrata(l.kinds)
		for _, base := range kinds[:len(kinds)-1] {
			pairs = append(pairs, [2]string{base, kinds[len(kinds)-1]})
		}
	}
	return pairs
}

func fig5() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "File-system software overhead relative to SplitFS at the same guarantee",
		Headers: []string{"Workload", "Baseline", "Baseline overhead (ms)", "SplitFS", "SplitFS overhead (ms)", "Rel"},
	}
	// ycsbA loads workload A's records and, if run, runs it.
	ycsbA := func(run bool) func(e *stack.Stack) error {
		return func(e *stack.Stack) error {
			db, err := lsmkv.Open(e.FS, lsmOpts())
			if err != nil {
				return err
			}
			defer db.Close()
			if _, err := ycsb.Load(db, ycsbCfg()); err != nil || !run {
				return err
			}
			_, err = ycsb.Run(db, ycsb.A, ycsbCfg())
			return err
		}
	}
	tpccRun := func(e *stack.Stack) error {
		b, db, err := tpccBench(e.FS)
		if err != nil {
			return err
		}
		defer db.Close()
		_, err = b.Run(tpccTx)
		return err
	}
	cases := []struct {
		workload, id string
		fn           func(*stack.Stack) error
	}{
		{"YCSB Load A", "ycsb_load_a", ycsbA(false)},
		{"YCSB Run A", "ycsb_run_a", ycsbA(true)},
		{"TPCC", "tpcc", tpccRun},
	}
	pairs := fig5Pairs()
	maxRel := make([]float64, len(pairs))
	var rels []float64
	for _, c := range cases {
		ns := map[string]int64{}
		for _, pair := range pairs {
			for _, kind := range pair {
				if _, ok := ns[kind]; ok {
					continue
				}
				e, err := paperStack(kind, appDev)
				if err != nil {
					return nil, err
				}
				d, err := measure(e.Clock, c.id+"/"+kind, 1, func() error { return c.fn(e) })
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", c.workload, kind, err)
				}
				ns[kind] = d.Overhead()
				t.AddMetric(c.id+"/"+kind, float64(ns[kind])/1e6, "ms")
			}
		}
		for i, pair := range pairs {
			bo, so := ns[pair[0]], ns[pair[1]]
			rel := float64(bo) / float64(so)
			addRatio(t, c.id, pair[0], pair[1], float64(bo), float64(so))
			maxRel[i] = max(maxRel[i], rel)
			rels = append(rels, rel)
			t.Rows = append(t.Rows, []string{c.workload, pair[0], f2(float64(bo) / 1e6), pair[1], f2(float64(so) / 1e6), xf(rel)})
		}
	}
	for i, pair := range pairs {
		t.AddMetric("max/"+pair[0]+"_vs_"+pair[1], maxRel[i], "x")
	}
	t.AddMetric("min/baseline_vs_splitfs", slices.Min(rels), "x")
	return t, nil
}

// withoutStrata drops Strata from a level: the paper runs Strata on
// YCSB/LevelDB alone (Table 7), so Fig 5 and Fig 6 have no Strata bars.
func withoutStrata(kinds []string) []string {
	return slices.DeleteFunc(kinds, func(k string) bool { return k == "strata" })
}

func fig6() (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Application performance (Kops/s; utilities in simulated ms, lower better)",
		Headers: []string{"Application", "Group", "File system", "Result", "vs group base"},
	}
	// Data-intensive: YCSB A and C, Redis SET, TPCC.
	groups := levels()
	for i := range groups {
		groups[i].kinds = withoutStrata(groups[i].kinds)
	}
	// Per group: SplitFS's best gain over the group's base, and its
	// smallest gain over any baseline of its group.
	groupMax := make([]float64, len(groups))
	minGain := math.Inf(1)
	for _, app := range []struct {
		name, id string
		run      func(kind string) (float64, error)
	}{
		{"YCSB-A/LevelDB", "ycsb_a", func(kind string) (float64, error) { return runYCSB(kind, ycsb.A) }},
		{"YCSB-C/LevelDB", "ycsb_c", func(kind string) (float64, error) { return runYCSB(kind, ycsb.C) }},
		{"Redis SET", "redis_set", redisSetKops},
		{"TPCC/SQLite", "tpcc", tpccKops},
	} {
		for gi, g := range groups {
			vals := make([]float64, len(g.kinds))
			for i, kind := range g.kinds {
				v, err := app.run(kind)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", app.name, kind, err)
				}
				vals[i] = v
				t.AddMetric(app.id+"/"+kind, v, "Kops/s")
				if i > 0 {
					addRatio(t, app.id, kind, g.kinds[0], v, vals[0])
				}
				t.Rows = append(t.Rows, []string{app.name, g.name, kind, f1(v) + " Kops/s", xf(v / vals[0])})
			}
			sf := vals[len(vals)-1]
			groupMax[gi] = max(groupMax[gi], sf/vals[0])
			for _, b := range vals[:len(vals)-1] {
				minGain = min(minGain, sf/b)
			}
		}
	}
	for gi, g := range groups {
		t.AddMetric("max/"+g.kinds[len(g.kinds)-1]+"_vs_"+g.kinds[0], groupMax[gi], "x")
	}
	t.AddMetric("min/splitfs_vs_baseline", minGain, "x")
	// Metadata-heavy utilities: best kernel baseline (ext4 DAX) vs
	// SplitFS; latency in ms, lower is better.
	utilTree := utilsim.TreeConfig{Dirs: 6, FilesPerDir: 12, FileBytes: 8 << 10}
	for _, u := range []struct {
		name, id string
		run      func(fs vfs.FileSystem, paths []string) error
	}{
		{"git add+commit", "git", func(fs vfs.FileSystem, paths []string) error {
			for r := 0; r < 3; r++ {
				if _, err := utilsim.GitAddCommit(fs, "/src", "/git", paths, r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"tar", "tar", func(fs vfs.FileSystem, paths []string) error {
			_, err := utilsim.Tar(fs, "/out.tar", paths)
			return err
		}},
		{"rsync", "rsync", func(fs vfs.FileSystem, paths []string) error {
			_, err := utilsim.Rsync(fs, "/src", "/dst", paths)
			return err
		}},
	} {
		var base, ms float64
		for i, kind := range []string{"ext4-dax", "splitfs-posix"} {
			e, err := paperStack(kind, appDev)
			if err != nil {
				return nil, err
			}
			paths, err := utilsim.MakeTree(e.FS, "/src", utilTree)
			if err != nil {
				return nil, err
			}
			d, err := measure(e.Clock, u.id+"/"+kind, 1, func() error { return u.run(e.FS, paths) })
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", u.name, kind, err)
			}
			ms = float64(d.Total) / 1e6
			if i == 0 {
				base = ms
			}
			t.AddMetric(u.id+"/"+kind, ms, "ms")
			t.Rows = append(t.Rows, []string{u.name, "metadata", kind, f2(ms) + " ms", xf(base / ms)})
		}
		// Lower is better: SplitFS's speed relative to ext4 DAX.
		addRatio(t, u.id, "splitfs-posix", "ext4-dax", base, ms)
	}
	return t, nil
}

// redisSetKops times Redis SETs on an append-only store (Figure 6).
func redisSetKops(kind string) (float64, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return 0, err
	}
	s, err := aofstore.Open(e.FS, aofstore.Options{})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	val := make([]byte, 512)
	const n = 4000
	d, err := measure(e.Clock, "redis_set/"+kind, n, func() error {
		for i := 0; i < n; i++ {
			if err := s.Set(fmt.Sprintf("key:%08d", i%1000), val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return kops(n, d.Total), nil
}

// tpccKops times TPC-C transactions on a WAL store (Figure 6).
func tpccKops(kind string) (float64, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return 0, err
	}
	b, db, err := tpccBench(e.FS)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	d, err := measure(e.Clock, "tpcc/"+kind, tpccTx, func() error {
		_, err := b.Run(tpccTx)
		return err
	})
	if err != nil {
		return 0, err
	}
	return kops(tpccTx, d.Total), nil
}
