package harness

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"splitfs/internal/benchfmt"
)

// macroGoldens pin the full metric stream of every backend:
// workload-generator drift, cost-model retuning, or any I/O-behavior
// change shows up as a hash mismatch here before it shows up as an
// unexplained BENCH_baseline.json drift in CI. Update by rerunning
// internal/harness.MacroBackendHash (see DESIGN.md, "Macrobenchmark
// matrix") when the change is intentional.
var macroGoldens = map[string]uint64{
	"ext4-dax":       0xf735920913a4aca5,
	"splitfs-posix":  0xb00cf0d0665ff617,
	"splitfs-sync":   0x5b11a4b4d0fd3d78,
	"splitfs-strict": 0xd534748f7b5f871b,
	"nova-strict":    0xae931dc930372b53,
	"nova-relaxed":   0x44760be720988130,
	"pmfs":           0x111fa5d6d4567525,
	"strata":         0x23128460b63fcf33,
}

func TestMacroSeedStabilityGoldens(t *testing.T) {
	if len(macroGoldens) != len(MacroBackends()) {
		t.Fatalf("goldens cover %d backends, registry has %d", len(macroGoldens), len(MacroBackends()))
	}
	for _, backend := range MacroBackends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			want, ok := macroGoldens[backend]
			if !ok {
				t.Fatalf("no golden for backend %q — add it to macroGoldens", backend)
			}
			got, err := MacroBackendHash(backend)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("macro metric hash for %s = %#016x, golden %#016x\n"+
					"(deterministic counters changed; if intentional, update macroGoldens "+
					"and run `go run ./cmd/splitbench -update-baseline`)", backend, got, want)
			}
		})
	}
}

// TestMacroCellDeterminism re-runs one write-heavy cell and requires
// every metric — including simulated ns/op — to match exactly. This is
// the property the CI gate's exact (non-statistical) comparison stands
// on.
func TestMacroCellDeterminism(t *testing.T) {
	run := func() []Metric {
		cell, err := RunMacroCell("splitfs-strict", "ycsb-A")
		if err != nil {
			t.Fatal(err)
		}
		return cell.Metrics
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("metrics differ between runs:\n%v\n%v", a, b)
	}
}

// TestMacroMatrixShape checks the acceptance-criteria contract: one cell
// per (backend x workload), each emitting the full fixed metric set, for
// all eight backends and both workload families.
func TestMacroMatrixShape(t *testing.T) {
	tbl, err := macroExp()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(MacroBackends()) * len(MacroWorkloads())
	if len(tbl.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), wantRows)
	}
	// Every cell contributes the 8 deterministic counters plus its mix.
	perCell := map[string]int{}
	for _, m := range tbl.Metrics {
		// metric name is "<workload>/<backend>/<name>"
		perCell[m.Name[:strings.LastIndexByte(m.Name, '/')]]++
	}
	if len(perCell) != wantRows {
		t.Fatalf("metric cells = %d, want %d", len(perCell), wantRows)
	}
	for cell, n := range perCell {
		if n < 8 {
			t.Errorf("cell %s has %d metrics, want >= 8", cell, n)
		}
	}
}

// TestMacroMetricsRoundTripSchema feeds real matrix metrics through the
// exact serialization cmd/splitbench -json performs and requires the
// result to satisfy the schema the CI gate loads, survive a disk
// round-trip value-identically, and contain gated (baseline-pinned)
// rows.
func TestMacroMetricsRoundTripSchema(t *testing.T) {
	cell, err := RunMacroCell("splitfs-sync", "tpcc")
	if err != nil {
		t.Fatal(err)
	}
	var recs []benchfmt.Record
	for _, m := range cell.Metrics {
		recs = append(recs, benchfmt.Record{
			Experiment: "macro",
			Metric:     cell.Workload + "/" + cell.Backend + "/" + m.Name,
			Value:      m.Value, Unit: m.Unit, GitRev: "test",
		})
	}
	if err := benchfmt.Validate(recs); err != nil {
		t.Fatalf("macro metrics violate the gate's schema: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := benchfmt.Save(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := benchfmt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, recs) {
		t.Errorf("rows changed across round-trip:\n%+v\n%+v", got, recs)
	}
	if n := len(benchfmt.GatedSubset(recs)); n != 6 {
		t.Errorf("cell contributes %d gated counters, want 6", n)
	}
}
