package benchfmt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(exp, metric string, v float64, rev string) Record {
	return Record{Experiment: exp, Metric: metric, Value: v, Unit: "count", GitRev: rev}
}

func TestValidate(t *testing.T) {
	good := []Record{rec("macro", "ycsb-A/pmfs/pm_bytes", 1, "abc")}
	if err := Validate(good); err != nil {
		t.Fatalf("valid records rejected: %v", err)
	}
	bad := []struct {
		name string
		r    Record
	}{
		{"empty experiment", Record{Metric: "m", Unit: "u", GitRev: "r"}},
		{"empty metric", Record{Experiment: "e", Unit: "u", GitRev: "r"}},
		{"empty unit", Record{Experiment: "e", Metric: "m", GitRev: "r"}},
		{"empty rev", Record{Experiment: "e", Metric: "m", Unit: "u"}},
		{"NaN", Record{Experiment: "e", Metric: "m", Unit: "u", GitRev: "r", Value: math.NaN()}},
		{"Inf", Record{Experiment: "e", Metric: "m", Unit: "u", GitRev: "r", Value: math.Inf(1)}},
	}
	for _, tc := range bad {
		if err := Validate([]Record{tc.r}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSaveLoadRoundTrip pins that what cmd/splitbench -json writes is
// exactly what the CI gate reads back: schema-valid and value-identical.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	recs := []Record{
		rec("macro", "ycsb-A/ext4-dax/fences_per_op", 2.841666666666667, "e72fb09"),
		rec("macro", "tpcc/splitfs-strict/pm_bytes", 3.375104e+06, "e72fb09"),
		rec("scaling", "appends_4t_kops", 123.25, "e72fb09"),
	}
	if err := Save(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round-trip lost rows: %d vs %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("row %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

// TestMergeDedup pins the rerun rule: same (experiment, metric, git_rev)
// replaces in place; a new revision appends.
func TestMergeDedup(t *testing.T) {
	old := []Record{
		rec("macro", "m1", 1, "rev1"),
		rec("macro", "m2", 2, "rev1"),
	}
	fresh := []Record{
		rec("macro", "m1", 10, "rev1"), // rerun at same rev: replace
		rec("macro", "m1", 11, "rev2"), // new rev: append
	}
	got := Merge(old, fresh)
	want := []Record{
		rec("macro", "m1", 10, "rev1"),
		rec("macro", "m2", 2, "rev1"),
		rec("macro", "m1", 11, "rev2"),
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGatedSelection(t *testing.T) {
	gated := []Record{
		rec("macro", "ycsb-A/pmfs/fences_per_op", 1, "r"),
		rec("macro", "tpcc/strata/journal_commits", 1, "r"),
		rec("macro", "ycsb-E/logfs/log_appends", 1, "r"),
		rec("macro", "ycsb-F/splitfs-sync/relinks", 1, "r"),
		rec("macro", "tpcc/splitfs-posix/staging_reclaimed", 1, "r"),
		rec("macro", "ycsb-B/ext4-dax/pm_bytes", 1, "r"),
		// The server experiment's loopback cells are deterministic by the
		// loopback-transport contract and pin the service's transparency.
		rec("server", "loopback/splitfs-strict/fences_per_op", 1, "r"),
		rec("server", "loopback/ext4-dax/pm_bytes", 1, "r"),
		// The lease cells pin the zero-copy data plane: fences/op must
		// stay equal to direct, and read_wire_bytes ~0 IS the "leased
		// reads cross no wire" guarantee.
		rec("server", "lease/splitfs-strict/fences_per_op", 1, "r"),
		rec("server", "lease/splitfs-strict/read_wire_bytes", 0, "r"),
		rec("server", "lease/ext4-dax/leased_read_bytes", 1, "r"),
		rec("server", "loopback/splitfs-strict/write_wire_bytes", 1, "r"),
	}
	ungated := []Record{
		rec("macro", "ycsb-A/pmfs/ns_per_op", 1, "r"),                 // cost-model dependent
		rec("macro", "ycsb-A/pmfs/mix_reads", 1, "r"),                 // mix, not a counter
		rec("scaling", "x/fences_per_op", 1, "r"),                     // not a gated experiment
		rec("fidelity", "fig4/append/x_vs_y/fences_per_op", 1, "r"),   // paper claims: banded, never pinned
		rec("server", "loopback/ext4-dax/wall_ns_per_op", 1, "r"),     // wall clock
		rec("server", "direct/ext4-dax/fences_per_op", 1, "r"),        // covered by loopback == direct test
		rec("server", "sessions/splitfs-strict/t8_kops_wall", 1, "r"), // concurrent mode
	}
	for _, r := range gated {
		if !Gated(r) {
			t.Errorf("%s should be gated", r.Metric)
		}
	}
	for _, r := range ungated {
		if Gated(r) {
			t.Errorf("%s/%s should not be gated", r.Experiment, r.Metric)
		}
	}
}

// TestDiffBaselineCatchesInjectedRegression is the acceptance-criteria
// demonstration: a run identical to the baseline passes, and injecting a
// counter regression (one extra fence per op on one cell) fails the
// gate.
func TestDiffBaselineCatchesInjectedRegression(t *testing.T) {
	baseline := []Record{
		rec("macro", "ycsb-A/splitfs-strict/fences_per_op", 3.52, "old"),
		rec("macro", "ycsb-A/splitfs-strict/pm_bytes", 2862080, "old"),
		rec("macro", "macro_wallclock_note", 99, "old"), // not gated: ignored
	}
	clean := []Record{
		rec("macro", "ycsb-A/splitfs-strict/fences_per_op", 3.52, "new"),
		rec("macro", "ycsb-A/splitfs-strict/pm_bytes", 2862080, "new"),
		rec("macro", "ycsb-A/splitfs-strict/ns_per_op", 8825.7, "new"), // ungated extra
	}
	if drifts := DiffBaseline(baseline, clean, []string{"macro"}); len(drifts) != 0 {
		t.Fatalf("clean run flagged: %v", drifts)
	}

	regressed := append([]Record(nil), clean...)
	regressed[0].Value = 4.52 // injected: one extra fence per op
	drifts := DiffBaseline(baseline, regressed, []string{"macro"})
	if len(drifts) != 1 {
		t.Fatalf("injected regression produced %d drifts, want 1: %v", len(drifts), drifts)
	}
	if drifts[0].Metric != "ycsb-A/splitfs-strict/fences_per_op" ||
		drifts[0].Want != 3.52 || drifts[0].Got != 4.52 {
		t.Errorf("wrong drift: %+v", drifts[0])
	}

	// A cell silently vanishing from the matrix is drift too.
	missing := clean[:1]
	if drifts := DiffBaseline(baseline, missing, []string{"macro"}); len(drifts) != 1 {
		t.Errorf("missing row produced %d drifts, want 1", len(drifts))
	}
	// And so is a new gated cell the baseline has never seen.
	extra := append([]Record(nil), clean...)
	extra = append(extra, rec("macro", "ycsb-A/zfs/fences_per_op", 1, "new"))
	if drifts := DiffBaseline(baseline, extra, []string{"macro"}); len(drifts) != 1 {
		t.Errorf("new gated row produced %d drifts, want 1", len(drifts))
	}
}

// TestDiffBaselineScopedToRanExperiments: a job that ran only one gated
// experiment must not be failed by the other's baseline rows, while
// rows of the ran experiment still gate fully.
func TestDiffBaselineScopedToRanExperiments(t *testing.T) {
	baseline := []Record{
		rec("macro", "ycsb-A/pmfs/fences_per_op", 2, "old"),
		rec("server", "loopback/ext4-dax/fences_per_op", 3, "old"),
	}
	serverOnly := []Record{
		rec("server", "loopback/ext4-dax/fences_per_op", 3, "new"),
	}
	if drifts := DiffBaseline(baseline, serverOnly, []string{"server"}); len(drifts) != 0 {
		t.Fatalf("server-only run flagged macro rows: %v", drifts)
	}
	// The ran experiment's rows still gate: a drifted value fails.
	serverOnly[0].Value = 4
	if drifts := DiffBaseline(baseline, serverOnly, []string{"server"}); len(drifts) != 1 {
		t.Fatalf("scoped check missed a drift: %v", drifts)
	}
	// And running both scopes everything.
	if drifts := DiffBaseline(baseline, serverOnly, []string{"macro", "server"}); len(drifts) != 2 {
		t.Fatalf("full scope should flag the drift and the missing macro row: %v", drifts)
	}
}

// TestRepinRewritesOnlyMovedRows: re-pinning a baseline after one counter
// moved rewrites that counter's record alone; every other row keeps its
// record, revision included, and the file differs in that row's lines.
func TestRepinRewritesOnlyMovedRows(t *testing.T) {
	base := []Record{
		rec("macro", "ycsb-A/pmfs/fences_per_op", 2.5, "rev1"),
		rec("macro", "ycsb-A/pmfs/pm_bytes", 4096, "rev1"),
		rec("obs", "ext4-dax/pmem/fences", 397, "rev0"),
	}
	run := []Record{
		rec("macro", "ycsb-A/pmfs/fences_per_op", 2.5, "rev2"),
		rec("macro", "ycsb-A/pmfs/ns_per_op", 900, "rev2"), // not gated
		rec("macro", "ycsb-A/pmfs/pm_bytes", 8192, "rev2"),
		rec("obs", "ext4-dax/pmem/fences", 397, "rev2"),
	}
	got, moved := Repin(base, run)
	want := []Record{base[0], run[2], base[2]}
	if moved != 1 || len(got) != len(want) {
		t.Fatalf("Repin = %+v, %d moved; want %+v, 1 moved", got, moved, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	dir := t.TempDir()
	before, after := filepath.Join(dir, "before.json"), filepath.Join(dir, "after.json")
	if err := Save(before, base); err != nil {
		t.Fatal(err)
	}
	if err := Save(after, got); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(before)
	b, _ := os.ReadFile(after)
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	var diff []string
	for i := range al {
		if al[i] != bl[i] {
			diff = append(diff, bl[i])
		}
	}
	if len(al) != len(bl) || len(diff) != 2 ||
		!strings.Contains(diff[0], "8192") || !strings.Contains(diff[1], "rev2") {
		t.Errorf("re-pinning one row changed these lines: %q", diff)
	}
	if got, moved := Repin(nil, run); moved != 3 || len(got) != 3 {
		t.Errorf("Repin with no baseline re-pinned %d of %d rows, want 3 of 3", moved, len(got))
	}
}
