// Package harness regenerates every table and figure from the SplitFS
// paper's evaluation (§5) on the simulated substrate. Each experiment is
// registered with the paper artifact it reproduces; cmd/splitbench and
// the repository's bench_test.go drive this registry.
//
// Absolute numbers come from the calibrated cost model (internal/sim);
// the claims under test are the paper's shapes: who wins, by what factor,
// and where the crossovers are. The claims table (paper.go) holds every
// paper number with the band ours must stay in, and the fidelity
// experiment checks them all.
package harness

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"splitfs/internal/ext4dax"
	"splitfs/internal/logfs"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

// Table is one rendered result table.
type Table struct {
	ID      string
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	// Metrics are the experiment's machine-readable results;
	// cmd/splitbench serializes them (with the experiment id and git
	// revision) into the file its -json flag names.
	Metrics []Metric
}

// Metric is one machine-readable measurement of an experiment.
type Metric struct {
	Name  string  `json:"metric"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// AddMetric appends a machine-readable measurement to the table.
func (t *Table) AddMetric(name string, value float64, unit string) {
	t.Metrics = append(t.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Metric finds a measurement by name.
func (t *Table) Metric(name string) (Metric, bool) {
	for _, m := range t.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// values indexes measurements by name.
func values(ms []Metric) map[string]float64 {
	m := make(map[string]float64, len(ms))
	for _, mm := range ms {
		m[mm.Name] = mm.Value
	}
	return m
}

// Render writes the table in an aligned text format, after the paper's
// claims on it.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	for _, l := range append(claimLines(t.ID), t.Note) {
		if l != "" {
			fmt.Fprintf(w, "   %s\n", l)
		}
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h) // fmt pads to runes, not bytes
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && utf8.RuneCountInString(c) > widths[i] {
				widths[i] = utf8.RuneCountInString(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i < len(widths) {
				sb.WriteString(fmt.Sprintf("  %-*s", widths[i], c))
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered reproduction.
type Experiment struct {
	ID    string // e.g. "table1", "fig4"
	Title string
	Run   func() (*Table, error)
}

var registry []Experiment

func register(id, title string, run func() (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in registration order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// level is one of Table 3's guarantee levels as the paper's figures
// group it: its label, then its kinds, baselines first and SplitFS last.
type level struct {
	name  string
	kinds []string
}

// levels reads the three levels from the table, POSIX first.
func levels() []level {
	return []level{{"POSIX", stack.Peers("splitfs-posix")}, {"sync", stack.Peers("splitfs-sync")},
		{"strict", stack.Peers("splitfs-strict")}}
}

// paperSpec sizes the stacks the paper-artifact experiments run on. The
// staging pool is sized so the background thread never blocks a run; the
// Strata private log so the digest cycles during a run, as it does at
// steady state on the paper's long workloads — an oversized log would let
// Strata dodge its double-write cost.
var paperSpec = stack.Spec{
	TrackWear:       true,
	KSplit:          ext4dax.Config{MaxInodes: 8192},
	USplit:          splitfs.Config{StagingFiles: 24, StagingFileBytes: 8 << 20, OpLogBytes: 8 << 20},
	Log:             logfs.Config{LogBytes: 8 << 20, SnapshotSlotBytes: 2 << 20},
	PrivateLogBytes: 3 << 20,
}

// paperStack builds a fresh stack of the given kind at paperSpec sizing.
func paperStack(kind string, devBytes int64) (*stack.Stack, error) {
	spec := paperSpec
	spec.DevBytes = devBytes
	return stack.New(kind, spec)
}

// ledgerCell, while the ledger experiment runs, receives every cell the
// experiments measure: its name, its operations and its rows.
var ledgerCell func(cell string, ops int64, rows sim.Ledger)

// rowMark is a clock's rows at the start of a cell.
type rowMark struct {
	clk *sim.Clock
	at  sim.Ledger
}

func markRows(clk *sim.Clock) rowMark { return rowMark{clk, clk.Ledger()} }

// report hands the rows charged since the mark to the ledger experiment,
// if it runs, as the cell named cell, of ops operations.
func (m rowMark) report(cell string, ops int64) {
	if ledgerCell != nil {
		ledgerCell(cell, ops, m.clk.Ledger().Sub(m.at))
	}
}

// measure runs fn and returns the simulated-time breakdown it consumed,
// reporting its rows as the cell named cell, of ops operations.
func measure(clk *sim.Clock, cell string, ops int64, fn func() error) (sim.Breakdown, error) {
	before, mark := clk.Snapshot(), markRows(clk)
	err := fn()
	mark.report(cell, ops)
	return clk.Snapshot().Sub(before), err
}

// kops converts (ops, ns) to Kops/s of simulated time.
func kops(ops int64, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(ops) / (float64(ns) / 1e9) / 1e3
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func us(ns int64) string   { return fmt.Sprintf("%.2f", float64(ns)/1000) }
func xf(v float64) string  { return fmt.Sprintf("%.2fx", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// addRatio emits a÷b, the ratio of two of an experiment's cells, as the
// metric "<col>/<na>_vs_<nb>".
func addRatio(t *Table, col, na, nb string, a, b float64) {
	t.AddMetric(col+"/"+na+"_vs_"+nb, a/b, "x")
}
