package crash

import (
	"slices"
	"testing"

	"splitfs/internal/pmem"
)

// A seeded fault — every workload fence is "forgotten" via the pmem test
// hook — must be caught by the sweep and minimized to a tiny reproducer.
func TestMinimizeSeededFenceViolation(t *testing.T) {
	cfg := ExploreConfig{
		Kind:      "splitfs-strict",
		Ops:       RandomOps(3, 10),
		Seed:      3,
		Sample:    24,
		SkipFence: func(seq int64) bool { return true },
	}
	res, err := Minimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 1 || len(res.Workloads[0]) > 5 {
		t.Fatalf("minimized to %d workloads of %d ops, want one of <= 5", len(res.Workloads), len(res.Workloads[0]))
	}
	if res.Violation.Msg == "" {
		t.Fatal("no witness violation")
	}
	t.Logf("minimized to %d ops in %d runs: %s", len(res.Workloads[0]), res.Runs, res.Violation.Msg)
}

// A healthy campaign of either kind must refuse to minimize.
func TestMinimizeRejectsHealthyCampaign(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  sweep
	}{
		{"direct", ExploreConfig{Kind: "splitfs-strict", Ops: RandomOps(5, 4), Seed: 5, Sample: 10}},
		{"served", ServedExploreConfig{Sample: 6, ServedCampaign: ServedCampaign{
			Kind: "splitfs-strict", Tenants: 2, OpsPerTenant: 5, Seed: 37}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Minimize(tc.cfg); err == nil {
				t.Fatal("expected error for a non-violating campaign")
			}
		})
	}
}

// pinFake is a sweep that breaches at point at whenever a candidate
// still holds an op on path bad, and records the include list every
// candidate is swept with.
type pinFake struct {
	w    [][]Op
	bad  string
	at   pmem.CrashPoint
	seen *[][]pmem.CrashPoint
}

func (f pinFake) workloads() [][]Op      { return f.w }
func (f pinFake) sanitize(ops []Op) []Op { return ops }

func (f pinFake) explore(w [][]Op, include []pmem.CrashPoint) (*ExploreResult, error) {
	*f.seen = append(*f.seen, slices.Clone(include))
	for _, ops := range w {
		if slices.ContainsFunc(ops, func(op Op) bool { return op.Path == f.bad }) {
			return &ExploreResult{Runs: 1, Violations: []Violation{{At: f.at, Msg: "breach"}}}, nil
		}
	}
	return &ExploreResult{Runs: 1}, nil
}

// TestMinimizePinsWitness: once a sweep has found a violation at a
// crash point, every later candidate is swept with that event and way
// pinned first, whatever the kind of sweep and however many workloads it
// has; and the shrunken workloads keep only the op the breach needs, an
// emptied tenant keeping its slot.
func TestMinimizePinsWitness(t *testing.T) {
	ops := func(names ...string) []Op {
		var out []Op
		for _, n := range names {
			out = append(out, Op{Kind: OpCreate, Path: n})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		w    [][]Op
		want [][]Op
	}{
		{"one-workload", [][]Op{ops("/a", "/b", "/bad", "/c", "/d")}, [][]Op{ops("/bad")}},
		{"two-workloads", [][]Op{ops("/a", "/b", "/c"), ops("/d", "/bad", "/e")}, [][]Op{nil, ops("/bad")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			witness := pmem.CrashPoint{Ev: pmem.Event{Seq: 41, Kind: pmem.EvStoreNT, Len: 64}, Way: pmem.Land}
			var seen [][]pmem.CrashPoint
			res, err := Minimize(pinFake{w: tc.w, bad: "/bad", at: witness, seen: &seen})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) < 3 {
				t.Fatalf("%d candidates swept: nothing to check", len(seen))
			}
			for i, include := range seen[1:] {
				if len(include) == 0 || include[0] != witness {
					t.Errorf("candidate %d swept with include %v after the witness at %v", i+1, include, witness)
				}
			}
			if len(res.Workloads) != len(tc.want) {
				t.Fatalf("minimized to %d workloads, want %d", len(res.Workloads), len(tc.want))
			}
			for i := range tc.want {
				if len(res.Workloads[i]) != len(tc.want[i]) || (len(tc.want[i]) > 0 && res.Workloads[i][0].Path != "/bad") {
					t.Errorf("workload %d minimized to %v, want %v", i, res.Workloads[i], tc.want[i])
				}
			}
			if res.Runs != len(seen) || res.Violation.At != witness {
				t.Errorf("runs %d (want %d), witness %v (want %v)", res.Runs, len(seen), res.Violation.At, witness)
			}
		})
	}
}
