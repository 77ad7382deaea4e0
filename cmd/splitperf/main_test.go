package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke runs one workload at about 1/200 of its benchmark length.
func smoke(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 0.15, trace: trace, setupReps: 1,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed, verification: %v", workload, seed, res.Failed, res.Attempted, res.failure)
	}
	return res
}

// exact reports whether a metric lives in the simulated domain, where a
// seed fixes every digit.
func exact(name string) bool {
	if strings.Contains(name, "_host_") {
		return false
	}
	switch name {
	case "sim_ns_per_op", "sim_overhead_ns_per_op", "pm_write_amp":
		return true
	}
	for _, layer := range []string{"sim.", "pmem.", "journal.", "ext4dax.", "splitfs."} {
		if strings.HasPrefix(name, layer) {
			return true
		}
	}
	return false
}

// exactMetrics lists a run's simulated-domain metrics, whichever mode
// it ran in.
func exactMetrics(t *testing.T, res *result) map[string]float64 {
	t.Helper()
	layer, err := res.measured.perLayer() // also asserts the sim categories sum to the total
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range append(layer, res.measured.endToEnd()...) {
		if exact(m.Name) {
			out[m.Name] = m.Value
		}
	}
	return out
}

func TestDirectWorkloadsRepeatExactly(t *testing.T) {
	for _, wl := range []string{"append-fsync", "rw-inplace", "meta-churn"} {
		t.Run(wl, func(t *testing.T) {
			a, b := smoke(t, wl, 7, false), smoke(t, wl, 7, false)
			other, traced := smoke(t, wl, 8, false), smoke(t, wl, 7, true)
			if ha, hb := a.measured.opStreamHash(), b.measured.opStreamHash(); ha != hb {
				t.Errorf("same seed, op-stream hashes %x and %x", ha, hb)
			}
			if a.measured.opStreamHash() == other.measured.opStreamHash() {
				t.Error("seeds 7 and 8 produced the same op stream")
			}
			ea := exactMetrics(t, a)
			if len(ea) < 30 {
				t.Fatalf("only %d exact metrics", len(ea))
			}
			// The decorator must forward everything: a traced run does
			// exactly the work of an untraced one.
			for label, run := range map[string]*result{"second run": b, "traced run": traced} {
				for name, v := range exactMetrics(t, run) {
					if v != ea[name] {
						t.Errorf("%s: %s = %v, first run had %v", label, name, v, ea[name])
					}
				}
			}
			// Predictions that must hold on the baseline itself.
			zero := []string{"ext4dax.gc_follower_frac"}
			if wl == "rw-inplace" {
				zero = append(zero, "sim.journal_ns_per_op", "journal.commits_per_op", "pmem.fences_per_op")
			}
			for _, name := range zero {
				if v, ok := ea[name]; !ok || v != 0 {
					t.Errorf("%s = %v (present %t), predicted 0 on %s", name, v, ok, wl)
				}
			}
			layer, _ := a.measured.perLayer()
			for _, m := range layer {
				if strings.HasPrefix(m.Name, "server.") && m.Value != 0 {
					t.Errorf("%s = %v on a direct workload", m.Name, m.Value)
				}
			}
		})
	}
}

func TestServedMixTraceLinksBackendToClient(t *testing.T) {
	res := smoke(t, "served-mix", 3, true)
	if h := smoke(t, "served-mix", 4, false).measured.opStreamHash(); h == res.measured.opStreamHash() {
		t.Error("seeds 3 and 4 produced the same op stream")
	}
	f, err := os.Open(res.measured.cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var children, leased, clients int
	ids := map[int64]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp struct {
			ID, Parent int64
			Layer, Op  string
			Leased     bool
			StartNs    int64 `json:"start_ns"`
			EndNs      int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		if sp.EndNs < sp.StartNs || sp.ID == 0 {
			t.Fatalf("bad span %s", sc.Text())
		}
		ids[sp.ID] = sp.Layer
		switch {
		case sp.Layer == "client":
			clients++
			if sp.Leased {
				leased++
			}
		case sp.Parent != 0:
			if ids[sp.Parent] != "client" {
				t.Fatalf("backend span %d has parent %d in layer %q", sp.ID, sp.Parent, ids[sp.Parent])
			}
			children++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if clients == 0 || children == 0 || leased == 0 {
		t.Errorf("%d client spans, %d backend children, %d leased reads: want all > 0", clients, children, leased)
	}
	if self := len(res.measured.link.self); self == 0 {
		t.Error("no client span had a backend child to take self time from")
	}
}

// TestNamesMatchBenchmarkJSON checks both emitted lists against the
// lists the driver reads, name for name and unit for unit.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for i, wl := range bench.Workloads {
		if i >= len(workloadNames) || wl.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, splitperf has %v", i, wl.Name, workloadNames)
		}
	}
	res := smoke(t, "meta-churn", 1, true)
	layer, err := res.measured.perLayer()
	if err != nil {
		t.Fatal(err)
	}
	layer = append(layer, runProbes()...)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, list := range []struct {
		what    string
		emitted []metric
		listed  []struct{ Name, Unit string }
	}{{"end_to_end", res.measured.endToEnd(), bench.EndToEnd}, {"per_layer", layer, bench.PerLayer}} {
		units := map[string]string{}
		for _, m := range list.emitted {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if _, dup := units[m.Name]; dup {
				t.Errorf("metric %s emitted twice", m.Name)
			}
			units[m.Name] = m.Unit
		}
		for _, m := range list.listed {
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s lists %s, which splitperf does not emit", list.what, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, unit)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("splitperf emits %s, which %s does not list", name, list.what)
		}
	}
}

// TestQuartilesMatchPython pins the spread statistic to the driver's:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
