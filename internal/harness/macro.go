// The macrobenchmark matrix: YCSB workloads A-F (on the lsmkv
// LSM engine) and a scaled-down TPC-C (on the waldb WAL page store) over
// every backend in the repository, through the vfs interface. The paper's
// headline numbers are exactly this matrix (§5.2: LevelDB/YCSB and
// SQLite/TPC-C over ext4-DAX, NOVA, PMFS, Strata, and the three SplitFS
// modes); here each cell reports deterministic simulator-derived metrics —
// simulated ns/op, fences/op, journal commits, relink and
// staging-reclaim counts, bytes written to PM — plus the executed op mix.
//
// Because every metric comes from the deterministic cost model and
// seeded generators, a cell's numbers are reproducible byte-for-byte:
// CI diffs the counters against BENCH_baseline.json and fails on any
// unexplained drift (see DESIGN.md, "Macrobenchmark matrix").
package harness

import (
	"fmt"
	"strings"

	"splitfs/internal/apps/lsmkv"
	"splitfs/internal/apps/waldb"
	"splitfs/internal/ext4dax"
	"splitfs/internal/logfs"
	"splitfs/internal/obs"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/wl/tpcc"
	"splitfs/internal/wl/ycsb"
)

func init() {
	register("macro", "Macrobenchmark matrix: YCSB A-F + TPC-C over all eight backends", macroExp)
}

// MacroWorkloads returns the workload column of the matrix.
func MacroWorkloads() []string {
	return []string{"ycsb-A", "ycsb-B", "ycsb-C", "ycsb-D", "ycsb-E", "ycsb-F", "tpcc"}
}

// MacroBackends returns the backend row of the matrix — the same eight
// the differential suite compares.
func MacroBackends() []string { return stack.Kinds() }

// macroParams sizes the matrix: the backend spec plus the workload and
// engine configurations. The workload seeds are fixed so every backend
// sees the identical op stream.
type macroParams struct {
	spec   stack.Spec
	ycsb   ycsb.Config
	lsm    lsmkv.Options
	tpcc   tpcc.Config
	tpccTx int
	ckpt   int // waldb checkpoint threshold (frames)
}

// macroSize is the one scale the matrix runs at: seconds for all eight
// backends, small enough for CI's gate.
var macroSize = macroParams{
	spec: stack.Spec{DevBytes: 64 << 20,
		KSplit: ext4dax.Config{MaxInodes: 1024},
		USplit: splitfs.Config{StagingFiles: 6, StagingFileBytes: 1 << 20, OpLogBytes: 1 << 20},
		Log:    logfs.Config{LogBytes: 4 << 20, SnapshotSlotBytes: 1 << 20}, PrivateLogBytes: 2 << 20},
	// The memtable is sized well below the loaded dataset (~32 KB) so
	// flushes, compactions, and table reads all happen within a run —
	// otherwise read-only workloads like C never leave the DRAM memtable
	// and measure nothing.
	ycsb:   ycsb.Config{Records: 120, Operations: 240, ValueBytes: 256, MaxScan: 20, Seed: 11},
	lsm:    lsmkv.Options{MemtableBytes: 8 << 10, SyncWrites: true, IndexEvery: 8},
	tpcc:   tpcc.Config{Warehouses: 1, Districts: 2, Customers: 20, Items: 60, Seed: 42},
	tpccTx: 60, ckpt: 128,
}

// MacroCell is one (backend, workload) matrix cell.
type MacroCell struct {
	Backend  string
	Workload string
	Ops      int64
	// Metrics in a fixed order: the deterministic counters first
	// (ns_per_op, fences_per_op, journal_commits, log_appends, relinks,
	// staging_reclaimed, pm_bytes, ops), then the executed op mix.
	Metrics []Metric
}

// cellMetrics renders the before/after counter delta into the cell's
// fixed metric order.
func cellMetrics(ops int64, before, after stack.Counters) []Metric {
	d := after.Clock.Sub(before.Clock)
	perOp := func(v int64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(v) / float64(ops)
	}
	return []Metric{
		{Name: "ns_per_op", Value: perOp(d.Total), Unit: "ns/op"},
		{Name: "fences_per_op", Value: perOp(after.Dev.Fences - before.Dev.Fences), Unit: "fences/op"},
		{Name: "journal_commits", Value: float64(after.Commits - before.Commits), Unit: "count"},
		{Name: "log_appends", Value: float64(after.LogAppends - before.LogAppends), Unit: "count"},
		{Name: "relinks", Value: float64(after.Relinks - before.Relinks), Unit: "count"},
		{Name: "staging_reclaimed", Value: float64(after.Reclaimed - before.Reclaimed), Unit: "count"},
		{Name: "pm_bytes", Value: float64(after.Dev.BytesWritten() - before.Dev.BytesWritten()), Unit: "bytes"},
		{Name: "ops", Value: float64(ops), Unit: "ops"},
	}
}

// RunMacroCell runs one workload on one backend and returns the cell's
// metrics. Only the run phase is measured; the load phase (YCSB load,
// TPC-C population) warms the store first.
func RunMacroCell(backend, workload string) (*MacroCell, error) {
	b, err := stack.New(backend, macroSize.spec)
	if err != nil {
		return nil, fmt.Errorf("macro %s: %w", backend, err)
	}
	cell := &MacroCell{Backend: backend, Workload: workload}
	switch {
	case strings.HasPrefix(workload, "ycsb-") && len(workload) == len("ycsb-")+1:
		w := ycsb.Workload(workload[len("ycsb-")])
		db, err := lsmkv.Open(b.FS, macroSize.lsm)
		if err != nil {
			return nil, fmt.Errorf("macro %s/%s: open: %w", workload, backend, err)
		}
		cfg := macroSize.ycsb
		if w == ycsb.E {
			cfg.Operations /= 2 // paper: 500K ops for E vs 1M elsewhere
		}
		if _, err := ycsb.Load(db, cfg); err != nil {
			return nil, fmt.Errorf("macro %s/%s: load: %w", workload, backend, err)
		}
		before, mark := b.Counters(), markRows(b.Clock)
		st, err := ycsb.Run(db, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("macro %s/%s: run: %w", workload, backend, err)
		}
		after := b.Counters()
		mark.report(workload+"/"+backend, st.Ops())
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("macro %s/%s: close: %w", workload, backend, err)
		}
		cell.Ops = st.Ops()
		cell.Metrics = append(cellMetrics(cell.Ops, before, after),
			Metric{Name: "mix_reads", Value: float64(st.Reads), Unit: "ops"},
			Metric{Name: "mix_updates", Value: float64(st.Updates), Unit: "ops"},
			Metric{Name: "mix_inserts", Value: float64(st.Inserts), Unit: "ops"},
			Metric{Name: "mix_scans", Value: float64(st.Scans), Unit: "ops"},
			Metric{Name: "mix_scan_rows", Value: float64(st.ScanRows), Unit: "rows"},
			Metric{Name: "mix_rmws", Value: float64(st.RMWs), Unit: "ops"},
		)
	case workload == "tpcc":
		db, err := waldb.Open(b.FS, waldb.Options{CheckpointPages: macroSize.ckpt})
		if err != nil {
			return nil, fmt.Errorf("macro tpcc/%s: open: %w", backend, err)
		}
		bench, err := tpcc.New(tpcc.Wrap(db), macroSize.tpcc)
		if err != nil {
			return nil, fmt.Errorf("macro tpcc/%s: populate: %w", backend, err)
		}
		before, mark := b.Counters(), markRows(b.Clock)
		st, err := bench.Run(macroSize.tpccTx)
		if err != nil {
			return nil, fmt.Errorf("macro tpcc/%s: run: %w", backend, err)
		}
		after := b.Counters()
		mark.report(workload+"/"+backend, st.Total())
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("macro tpcc/%s: close: %w", backend, err)
		}
		cell.Ops = st.Total()
		cell.Metrics = append(cellMetrics(cell.Ops, before, after),
			Metric{Name: "mix_new_orders", Value: float64(st.NewOrders), Unit: "txns"},
			Metric{Name: "mix_payments", Value: float64(st.Payments), Unit: "txns"},
			Metric{Name: "mix_order_statuses", Value: float64(st.OrderStatuses), Unit: "txns"},
			Metric{Name: "mix_deliveries", Value: float64(st.Deliveries), Unit: "txns"},
			Metric{Name: "mix_stock_levels", Value: float64(st.StockLevels), Unit: "txns"},
		)
	default:
		return nil, fmt.Errorf("harness: unknown macro workload %q", workload)
	}
	return cell, nil
}

// macroExp runs the matrix and renders one table, one row per cell,
// flattening every metric into Table.Metrics as
// "<workload>/<backend>/<metric>" so cmd/splitbench serializes one
// results row per (backend x workload x metric).
func macroExp() (*Table, error) {
	backends, workloads := MacroBackends(), MacroWorkloads()
	t := &Table{
		ID:    "macro",
		Title: fmt.Sprintf("Macrobenchmark matrix: %d workloads x %d backends", len(workloads), len(backends)),
		Note:  "deterministic sim-derived counters; CI pins fences/op, journal commits, and PM bytes against BENCH_baseline.json",
		Headers: []string{"Workload", "Backend", "ns/op", "fences/op", "commits",
			"log appends", "relinks", "reclaimed", "PM MB", "ops"},
	}
	for _, w := range workloads {
		for _, bk := range backends {
			cell, err := RunMacroCell(bk, w)
			if err != nil {
				return nil, err
			}
			m := values(cell.Metrics)
			t.Rows = append(t.Rows, []string{
				w, bk, f1(m["ns_per_op"]), f2(m["fences_per_op"]),
				fmt.Sprintf("%.0f", m["journal_commits"]),
				fmt.Sprintf("%.0f", m["log_appends"]),
				fmt.Sprintf("%.0f", m["relinks"]),
				fmt.Sprintf("%.0f", m["staging_reclaimed"]),
				f2(m["pm_bytes"] / (1 << 20)),
				fmt.Sprintf("%d", cell.Ops),
			})
			for _, mm := range cell.Metrics {
				t.AddMetric(w+"/"+bk+"/"+mm.Name, mm.Value, mm.Unit)
			}
		}
	}
	return t, nil
}

// MacroBackendHash runs every macro workload on one backend and returns
// an FNV-1a digest over the rendered metric lines — the seed-stability
// golden pinning both the generators and the simulator's deterministic
// counters.
func MacroBackendHash(backend string) (uint64, error) {
	var sb strings.Builder
	for _, w := range MacroWorkloads() {
		cell, err := RunMacroCell(backend, w)
		if err != nil {
			return 0, err
		}
		for _, m := range cell.Metrics {
			fmt.Fprintf(&sb, "%s/%s/%s=%.6g %s\n", w, backend, m.Name, m.Value, m.Unit)
		}
	}
	return obs.FNV1a(sb.String()), nil
}
