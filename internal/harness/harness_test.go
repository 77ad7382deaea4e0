package harness

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"splitfs/internal/sim"
)

// The harness tests verify that every experiment runs, that each stays
// within the bands of the paper's claims on it, and the shapes a claim
// cannot state.

// tables memoizes runT: each experiment runs once per test binary.
var tables = map[string]*Table{}

func runT(t *testing.T, id string) *Table {
	t.Helper()
	if tbl, ok := tables[id]; ok {
		return tbl
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tbl, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	if !strings.Contains(buf.String(), tbl.Title) {
		t.Fatal("render lost the title")
	}
	tables[id] = tbl
	return tbl
}

func metric(t *testing.T, tbl *Table, name string) float64 {
	t.Helper()
	m, ok := tbl.Metric(name)
	if !ok {
		t.Fatalf("%s: no metric %s", tbl.ID, name)
	}
	return m.Value
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "recovery", "resources", "ablation", "fidelity",
		"macro", "server", "obs", "ledger"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

// TestFidelity holds each paper experiment to every claim on it.
func TestFidelity(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
		if seen[c.Exp] {
			continue
		}
		seen[c.Exp] = true
		t.Run(c.Exp, func(t *testing.T) {
			cs := slices.DeleteFunc(slices.Clone(claims), func(o claim) bool { return o.Exp != c.Exp })
			if _, err := fidelity(cs, func(string) (*Table, error) { return runT(t, c.Exp), nil }); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFidelityGate checks the gate itself on a synthetic table.
func TestFidelityGate(t *testing.T) {
	tbl := &Table{ID: "x"}
	tbl.AddMetric("a", 10, "ns")
	tbl.AddMetric("unclaimed", 1, "ns")
	run := func(string) (*Table, error) { return tbl, nil }
	for _, tc := range []struct {
		name string
		c    claim
		ok   bool
	}{
		{"inside, beside an unclaimed metric", claim{"x", "a", 5, "", 1.9, 2.1}, true},
		{"above hi", claim{"x", "a", 5, "", 1.5, 1.9}, false},
		{"below lo", claim{"x", "a", 5, "", 2.1, 2.5}, false},
		{"qualitative: the band bounds ours", claim{"x", "a", 0, "", 9, 11}, true},
		{"qualitative, above hi", claim{"x", "a", 0, "", 1.9, 2.1}, false},
		{"metric missing", claim{"x", "b", 5, "", 0, 100}, false},
	} {
		if _, err := fidelity([]claim{tc.c}, run); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

// TestRecoveryScalesLinearly: replay time is a fixed cost — mapping and
// zeroing the log — plus a per-entry cost that stays the same from 100
// entries to the paper's 2 M: each step between two log sizes costs within
// 1.5x of every other step per entry.
func TestRecoveryScalesLinearly(t *testing.T) {
	tbl := runT(t, "recovery")
	ms := func(n int) float64 { return metric(t, tbl, fmt.Sprintf("entries_%d/replay_ms", n)) }
	var lo, hi float64
	for r := 1; r < len(recoveryPoints); r++ {
		prev, cur := recoveryPoints[r-1].entries, recoveryPoints[r].entries
		step := (ms(cur) - ms(prev)) / float64(cur-prev)
		if r == 1 || step < lo {
			lo = step
		}
		hi = max(hi, step)
	}
	if lo <= 0 || hi > 1.5*lo {
		t.Fatalf("recovery not linear: a step between two log sizes costs %.4f to %.4f ms per entry", lo, hi)
	}
}

// TestAblationShape: the huge-page switch must act (it was a no-op while
// staging files were never 2 MB-aligned): its row differs from the
// default's in the page-fault category, by the 4 KB population of the
// eight 8 MB staging files (8 x 2048 x 2.2 us) against their 2 MB
// population (8 x 4 x 3.6).
func TestAblationShape(t *testing.T) {
	tbl := runT(t, "ablation")
	hugeFaults, smallFaults := metric(t, tbl, "page_faults/default"), metric(t, tbl, "page_faults/no-huge-pages")
	if want := 8 * (2048*float64(sim.PageFault4K.Cost(1)) - 4*float64(sim.PageFault2M.Cost(1))) / 1e3; math.Abs(smallFaults-hugeFaults-want) > 0.1 {
		t.Fatalf("page faults: default %.1f us, huge pages disabled %.1f us; want them %.1f us apart",
			hugeFaults, smallFaults, want)
	}
}
