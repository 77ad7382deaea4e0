package harness

import (
	"testing"

	"splitfs/internal/stack"
)

// TestServerStreamServedMatchesDirect pins the loopback-transparency
// property the baseline gate relies on: the deterministic stream issues
// the identical backend-operation sequence direct and served, so every
// sim-derived counter matches exactly.
func TestServerStreamServedMatchesDirect(t *testing.T) {
	for _, kind := range serverDetBackends {
		direct, err := ServerStreamCell(kind)
		if err != nil {
			t.Fatal(err)
		}
		served, err := ServerStreamCell(stack.Name(kind, true, false))
		if err != nil {
			t.Fatal(err)
		}
		dm, sm := values(direct.Metrics), values(served.Metrics)
		for name, dv := range dm {
			if sv, ok := sm[name]; !ok || sv != dv {
				t.Errorf("%s: %s direct=%v served=%v", kind, name, dv, sm[name])
			}
		}
	}
}

// TestServerStreamLeaseCell pins the zero-copy data plane's bench
// properties: a served-lease: cell issues the same backend-operation
// sequence as direct (every sim counter equal), moves its read volume
// through leased mappings, and sends zero data bytes through the read
// side of the wire codec.
func TestServerStreamLeaseCell(t *testing.T) {
	for _, kind := range serverDetBackends {
		direct, err := ServerStreamCell(kind)
		if err != nil {
			t.Fatal(err)
		}
		leased, err := ServerStreamCell(stack.Name(kind, true, true))
		if err != nil {
			t.Fatal(err)
		}
		dm, lm := values(direct.Metrics), values(leased.Metrics)
		// Gated counters only: ns_per_op is sim-clock-derived and a lease
		// grant costs clock (a metadata Stat), which is fine — the gate
		// pins I/O behavior, not the cost model.
		for _, name := range []string{"fences_per_op", "journal_commits", "log_appends",
			"relinks", "staging_reclaimed", "pm_bytes"} {
			dv, ok := dm[name]
			if !ok {
				continue
			}
			if lv := lm[name]; lv != dv {
				t.Errorf("%s: %s direct=%v leased=%v", kind, name, dv, lv)
			}
		}
		if lm["leased_read_bytes"] <= 0 {
			t.Errorf("%s: leased cell read no bytes through the mapping", kind)
		}
		if lm["read_wire_bytes"] != 0 {
			t.Errorf("%s: leased cell sent %v data bytes over the read wire, want 0",
				kind, lm["read_wire_bytes"])
		}
		if lm["leased_write_bytes"] <= 0 || lm["write_wire_bytes"] != 0 {
			t.Errorf("%s: leased cell write routing: leased=%v wire=%v, want all leased",
				kind, lm["leased_write_bytes"], lm["write_wire_bytes"])
		}
	}
}

// TestServerStreamDeterminism: two fresh processes-worth of state must
// agree on every counter (the property that lets CI pin the loopback
// cells in BENCH_baseline.json).
func TestServerStreamDeterminism(t *testing.T) {
	a, err := ServerStreamCell("served:splitfs-strict")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServerStreamCell("served:splitfs-strict")
	if err != nil {
		t.Fatal(err)
	}
	am, bm := values(a.Metrics), values(b.Metrics)
	for name, av := range am {
		if bv := bm[name]; bv != av {
			t.Errorf("rerun drift: %s %v vs %v", name, av, bv)
		}
	}
}
