package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A splitperf run's output: what it ran, metrics for people, then the
// JSON line perfpair reads.
const splitperfOut = `nproc 2 GOMAXPROCS 2 go1.24.0
host_peak_rss_mb                     83.23828125 MB
harness.allocs_per_op                0.1840287081339713 count
{"attempted":418000,"correct":true,"failed":0,"metrics":{"host_peak_rss_mb":{"value":83.23828125,"unit":"MB"},"pm_write_amp":{"value":13.742392665501646,"unit":"x"},"setup_s":{"value":0.076760005,"unit":"s"},"sim_ns_per_op":{"value":5737.797944976077,"unit":"sim_ns"},"sim_overhead_ns_per_op":{"value":5612.93430861244,"unit":"sim_ns"}}}
`

func TestParseSplitperf(t *testing.T) {
	r, err := parseSplitperf([]byte(splitperfOut))
	if err != nil {
		t.Fatal(err)
	}
	if !r.ok() || r.Attempted != 418000 || len(r.Metrics) != 5 || r.Metrics["host_peak_rss_mb"].Value != 83.23828125 {
		t.Fatalf("parsed %+v", r)
	}
	if v := values([]splitperfRun{r, {}}, "setup_s"); v[0] != 0.076760005 || !math.IsNaN(v[1]) {
		t.Fatalf("values = %v, want the run's value and NaN for a run without it", v)
	}
	failed := strings.Replace(splitperfOut, `"correct":true,"failed":0`, `"correct":false,"failed":3`, 1)
	if r, err := parseSplitperf([]byte(failed)); err != nil || r.ok() {
		t.Fatalf("an incorrect run parsed as ok=%v (%v)", r.ok(), err)
	}
	if _, err := parseSplitperf([]byte("splitperf: set-up 0: boom\n")); err == nil {
		t.Fatal("output without a result line parsed")
	}
}

const benchOut = `goos: linux
goarch: amd64
pkg: splitfs
cpu: AMD EPYC
BenchmarkParallelAppends/threads=1-2         	      50	   3840000 ns/op	        11.5 setup-ns/op	   533.3 wall-Kops/s	  1221 sim-ns/op	 9384518 B/op	    2113 allocs/op
BenchmarkParallelAppends/threads=8-2         	      50	   4980000 ns/op	   9384518 B/op	    2113 allocs/op
PASS
ok  	splitfs	3.1s
`

func TestParseBench(t *testing.T) {
	got := parseBench([]byte(benchOut))
	want := map[string]float64{
		"BenchmarkParallelAppends/threads=1\x00ns/op":       3840000,
		"BenchmarkParallelAppends/threads=1\x00setup-ns/op": 11.5,
		"BenchmarkParallelAppends/threads=1\x00wall-Kops/s": 533.3,
		"BenchmarkParallelAppends/threads=1\x00sim-ns/op":   1221,
		"BenchmarkParallelAppends/threads=1\x00B/op":        9384518,
		"BenchmarkParallelAppends/threads=1\x00allocs/op":   2113,
		"BenchmarkParallelAppends/threads=8\x00ns/op":       4980000,
		"BenchmarkParallelAppends/threads=8\x00B/op":        9384518,
		"BenchmarkParallelAppends/threads=8\x00allocs/op":   2113,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d values, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%q = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q := quartilesOf([]float64{7, 1, 3, 5, 9, 2, 4, 6, 8, 10}) // 1..10
	if q.Q1 != 3.25 || q.Median != 5.5 || q.Q3 != 7.75 {
		t.Fatalf("quartiles of 1..10 = %+v, want 3.25 / 5.5 / 7.75", q)
	}
	if q := quartilesOf([]float64{4}); q.Q1 != 4 || q.Median != 4 || q.Q3 != 4 {
		t.Fatalf("quartiles of one value = %+v", q)
	}
}

func TestJudge(t *testing.T) {
	rss := metricSpec{Name: "host_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.05}
	ops := metricSpec{Name: "ops", Unit: "1/s", Better: "higher", Bound: 0.05}
	parent := []float64{101.2, 101.0, 101.3, 101.1, 101.2, 101.4, 101.0, 101.2, 101.3, 101.1}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		exact          bool
		verdict        string
		won            int
	}{
		{"10 of 10 lower, by more than the IQR", rss, parent,
			[]float64{83.2, 83.1, 83.3, 83.2, 83.0, 83.2, 83.4, 83.1, 83.2, 83.3}, false, verdictGain, 10},
		{"8 of 10 lower is no gain", rss, parent,
			[]float64{83.2, 83.1, 83.3, 83.2, 83.0, 83.2, 83.4, 83.1, 101.5, 101.5}, false, verdictSame, 8},
		{"9 of 10 but inside the IQR", rss, parent,
			[]float64{101.1, 100.9, 101.2, 101.0, 101.1, 101.3, 100.9, 101.1, 101.2, 101.2}, false, verdictSame, 9},
		{"worse by more than the bound", rss, parent,
			[]float64{107, 107, 107, 107, 107, 107, 107, 107, 107, 107}, false, verdictWorse, 0},
		{"higher is better", ops, []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 100},
			[]float64{120, 121, 119, 120, 120, 122, 118, 120, 121, 120}, false, verdictGain, 10},
		{"higher is better, worse", ops, []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 100},
			[]float64{90, 91, 89, 90, 90, 92, 88, 90, 91, 90}, false, verdictWorse, 0},
		{"spread wider than the bound", rss, []float64{80, 120, 80, 120}, []float64{100, 100, 101, 99}, false, verdictUnresolved, 2},
		{"spread wider than the bound, every run better", rss, []float64{80, 120, 80, 120}, []float64{79, 78, 79, 78}, false, verdictSame, 4},
		{"simulated, equal at every seed", rss, parent, parent, true, verdictIdentical, 0},
		{"simulated, one seed differs", rss, parent, append(append([]float64{}, parent[:9]...), 101.2), true, verdictSim, 0},
		{"a side never reported it", rss, []float64{math.NaN(), math.NaN()}, []float64{83.25, 83.75}, false, verdictMissing, 0},
		{"ties count for neither", rss, []float64{5, 5, 5, 6}, []float64{5, 5, 5, 5}, false, verdictSame, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := judge("meta-churn", c.m, c.parent, c.change, c.exact)
			if r.Verdict != c.verdict || r.Won != c.won {
				t.Fatalf("verdict %q, won %d/%d; want %q, %d (row %+v)", r.Verdict, r.Won, r.Pairs, c.verdict, c.won, r)
			}
			if r.Verdict == verdictMissing && r.C.Median != 83.5 {
				t.Fatalf("the side that reported it has median %v, want 83.5", r.C.Median)
			}
			if _, err := json.Marshal(r); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTableAndJSONCarryTheSameRows(t *testing.T) {
	rows := []row{
		judge("meta-churn", metricSpec{Name: "host_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.05},
			[]float64{101.2, 101.0, 101.3}, []float64{83.2, 83.1, 83.3}, false),
		judge("meta-churn", metricSpec{Name: "sim_ns_per_op", Unit: "sim_ns", Better: "lower", Bound: 0.02},
			[]float64{5737.8, 5738.2, 5737.9}, []float64{5737.8, 5738.2, 5737.9}, true),
	}
	var b bytes.Buffer
	printTable(&b, rows)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := []string{
		"workload    metric                parent median [q1, q3]     change median [q1, q3]     delta    better  inside  verdict",
		"meta-churn  host_peak_rss_mb MB   101.2 [101.1, 101.25]      83.2 [83.15, 83.25]        -17.79%  3/3     no      gain",
		"meta-churn  sim_ns_per_op sim_ns  5737.9 [5737.85, 5738.05]  5737.9 [5737.85, 5738.05]  +0.00%   0/3     yes     identical",
	}
	if len(lines) != len(want) {
		t.Fatalf("table:\n%s", b.String())
	}
	for i := range want {
		if strings.TrimRight(lines[i], " ") != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}
	var back []row
	line, _ := json.Marshal(rows)
	if err := json.Unmarshal(line, &back); err != nil || len(back) != 2 || back[0].Verdict != verdictGain || back[1].C.Median != 5737.9 {
		t.Fatalf("JSON rows %s read back as %+v (%v)", line, back, err)
	}
}

func TestLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seeds.ledger")
	if err := os.WriteFile(path, []byte("# comment\n1-3010 before the ledger\n\n3051 one seed\n3020-3030 a range\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	first, err := reserveSeeds(path, 10, "meta-churn abc..def")
	if err != nil || first != 3052 {
		t.Fatalf("first seed %d (%v), want 3052: one above the highest", first, err)
	}
	if first, err = reserveSeeds(path, 2, "rw-inplace abc..def"); err != nil || first != 3062 {
		t.Fatalf("second reservation starts at %d (%v), want 3062: above the first", first, err)
	}
	b, _ := os.ReadFile(path)
	if !strings.Contains(string(b), "\n3052-3061 meta-churn abc..def ") || !strings.Contains(string(b), "\n3062-3063 rw-inplace abc..def ") {
		t.Fatalf("ledger after two reservations:\n%s", b)
	}
	if _, err := ledgerTop("30x0-3010 typo\n"); err == nil {
		t.Fatal("a malformed line was accepted")
	}
	committed, err := os.ReadFile("seeds.ledger")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledgerTop(string(committed)); err != nil {
		t.Fatalf("the committed ledger: %v", err)
	}
}

// A checkout goes into a directory of its own: one an earlier run left is
// refused before git runs, for a file in it would stop the extraction
// part-way.
func TestCheckoutNeedsNewDir(t *testing.T) {
	if _, err := checkout(".", "HEAD", t.TempDir()); !errors.Is(err, os.ErrExist) {
		t.Fatalf("checkout into an existing directory: %v, want it refused", err)
	}
}

func TestOrderAlternates(t *testing.T) {
	if order(true) != [2]int{0, 1} || order(false) != [2]int{1, 0} {
		t.Fatal("the parent must run first exactly when asked")
	}
}
