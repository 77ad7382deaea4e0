package harness

import (
	"fmt"

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
	d, err := measure(e.Clock, func() error {
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
		Note:    "paper: SplitFS 1.72x-2.25x Strata across A-F (Strata 29.1-113.1 Kops/s)",
		Headers: []string{"Workload", "Strata (Kops/s)", "SplitFS-strict (Kops/s)", "SplitFS/Strata"},
	}
	for _, w := range []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.D, ycsb.E, ycsb.F} {
		st, err := runYCSB("strata", w)
		if err != nil {
			return nil, fmt.Errorf("strata %c: %w", w, err)
		}
		sp, err := runYCSB("splitfs-strict", w)
		if err != nil {
			return nil, fmt.Errorf("splitfs %c: %w", w, err)
		}
		t.Rows = append(t.Rows, []string{
			"Run " + string(w), f1(st), f1(sp), xf(sp / st),
		})
	}
	return t, nil
}

// overheadOf runs a workload and returns (total ns, software-overhead ns).
func overheadOf(kind string, fn func(e *stack.Stack) error) (int64, int64, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return 0, 0, err
	}
	d, err := measure(e.Clock, func() error { return fn(e) })
	if err != nil {
		return 0, 0, err
	}
	return d.Total, d.Overhead(), nil
}

func fig5() (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "File-system software overhead relative to SplitFS at the same guarantee",
		Note:    "paper: ext4 DAX up to 3.6x, NOVA-relaxed up to 7.4x (TPCC), PMFS lowest at ~1.9x; SplitFS lowest overall",
		Headers: []string{"Workload", "Baseline", "Baseline overhead (ms)", "SplitFS", "SplitFS overhead (ms)", "Rel"},
	}
	loadA := func(e *stack.Stack) error {
		db, err := lsmkv.Open(e.FS, lsmOpts())
		if err != nil {
			return err
		}
		defer db.Close()
		_, err = ycsb.Load(db, ycsbCfg())
		return err
	}
	runA := func(e *stack.Stack) error {
		db, err := lsmkv.Open(e.FS, lsmOpts())
		if err != nil {
			return err
		}
		defer db.Close()
		if _, err := ycsb.Load(db, ycsbCfg()); err != nil {
			return err
		}
		_, err = ycsb.Run(db, ycsb.A, ycsbCfg())
		return err
	}
	tpccRun := func(e *stack.Stack) error {
		db, err := waldb.Open(e.FS, waldb.Options{})
		if err != nil {
			return err
		}
		defer db.Close()
		b, err := tpcc.New(tpcc.Wrap(db), tpcc.Config{Warehouses: 1, Districts: 4, Customers: 60, Items: 200})
		if err != nil {
			return err
		}
		_, err = b.Run(400)
		return err
	}
	cases := []struct {
		workload string
		fn       func(*stack.Stack) error
		pairs    [][2]string // baseline kind, splitfs kind
	}{
		{"YCSB Load A", loadA, [][2]string{
			{"ext4-dax", "splitfs-posix"},
			{"pmfs", "splitfs-sync"},
			{"nova-relaxed", "splitfs-sync"},
			{"nova-strict", "splitfs-strict"},
		}},
		{"YCSB Run A", runA, [][2]string{
			{"ext4-dax", "splitfs-posix"},
			{"pmfs", "splitfs-sync"},
			{"nova-relaxed", "splitfs-sync"},
			{"nova-strict", "splitfs-strict"},
		}},
		{"TPCC", tpccRun, [][2]string{
			{"ext4-dax", "splitfs-posix"},
			{"pmfs", "splitfs-sync"},
			{"nova-relaxed", "splitfs-sync"},
			{"nova-strict", "splitfs-strict"},
		}},
	}
	for _, c := range cases {
		for _, pair := range c.pairs {
			_, bo, err := overheadOf(pair[0], c.fn)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.workload, pair[0], err)
			}
			_, so, err := overheadOf(pair[1], c.fn)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", c.workload, pair[1], err)
			}
			t.Rows = append(t.Rows, []string{
				c.workload, pair[0], f2(float64(bo) / 1e6),
				pair[1], f2(float64(so) / 1e6),
				xf(float64(bo) / float64(so)),
			})
		}
	}
	return t, nil
}

func fig6() (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Application performance (Kops/s; utilities in simulated ms, lower better)",
		Note:    "paper: SplitFS beats all same-guarantee baselines on data-intensive apps by up to 2.7x; loses <=15% on git/tar/rsync",
		Headers: []string{"Application", "Group", "File system", "Result", "vs group base"},
	}
	// Data-intensive: YCSB A and C, Redis SET, TPCC.
	groups := []struct {
		name  string
		kinds []string
	}{
		{"POSIX", posixKinds},
		{"sync", syncKinds},
		{"strict", []string{"nova-strict", "splitfs-strict"}},
	}
	appendRows := func(app string, run func(kind string) (float64, error), higherBetter bool, unit string) error {
		for _, g := range groups {
			var base float64
			for i, kind := range g.kinds {
				v, err := run(kind)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", app, kind, err)
				}
				if i == 0 {
					base = v
				}
				rel := v / base
				if !higherBetter {
					rel = base / v
				}
				t.Rows = append(t.Rows, []string{app, g.name, kind,
					f1(v) + " " + unit, xf(rel)})
			}
		}
		return nil
	}
	if err := appendRows("YCSB-A/LevelDB", func(kind string) (float64, error) {
		return runYCSB(kind, ycsb.A)
	}, true, "Kops/s"); err != nil {
		return nil, err
	}
	if err := appendRows("YCSB-C/LevelDB", func(kind string) (float64, error) {
		return runYCSB(kind, ycsb.C)
	}, true, "Kops/s"); err != nil {
		return nil, err
	}
	if err := appendRows("Redis SET", func(kind string) (float64, error) {
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
		d, err := measure(e.Clock, func() error {
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
	}, true, "Kops/s"); err != nil {
		return nil, err
	}
	if err := appendRows("TPCC/SQLite", func(kind string) (float64, error) {
		e, err := paperStack(kind, appDev)
		if err != nil {
			return 0, err
		}
		db, err := waldb.Open(e.FS, waldb.Options{})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		b, err := tpcc.New(tpcc.Wrap(db), tpcc.Config{Warehouses: 1, Districts: 4, Customers: 60, Items: 200})
		if err != nil {
			return 0, err
		}
		const n = 400
		d, err := measure(e.Clock, func() error {
			_, err := b.Run(n)
			return err
		})
		if err != nil {
			return 0, err
		}
		return kops(n, d.Total), nil
	}, true, "Kops/s"); err != nil {
		return nil, err
	}
	// Metadata-heavy utilities: best kernel baseline (ext4 DAX) vs
	// SplitFS; latency in ms, lower is better.
	utilTree := utilsim.TreeConfig{Dirs: 6, FilesPerDir: 12, FileBytes: 8 << 10}
	utils := []struct {
		name string
		run  func(fs vfs.FileSystem, paths []string) error
	}{
		{"git add+commit", func(fs vfs.FileSystem, paths []string) error {
			for r := 0; r < 3; r++ {
				if _, err := utilsim.GitAddCommit(fs, "/src", "/git", paths, r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"tar", func(fs vfs.FileSystem, paths []string) error {
			_, err := utilsim.Tar(fs, "/out.tar", paths)
			return err
		}},
		{"rsync", func(fs vfs.FileSystem, paths []string) error {
			_, err := utilsim.Rsync(fs, "/src", "/dst", paths)
			return err
		}},
	}
	for _, u := range utils {
		var base float64
		for i, kind := range []string{"ext4-dax", "splitfs-posix"} {
			e, err := paperStack(kind, appDev)
			if err != nil {
				return nil, err
			}
			paths, err := utilsim.MakeTree(e.FS, "/src", utilTree)
			if err != nil {
				return nil, err
			}
			d, err := measure(e.Clock, func() error { return u.run(e.FS, paths) })
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", u.name, kind, err)
			}
			ms := float64(d.Total) / 1e6
			if i == 0 {
				base = ms
			}
			t.Rows = append(t.Rows, []string{u.name, "metadata", kind,
				f2(ms) + " ms", xf(base / ms)})
		}
	}
	return t, nil
}
