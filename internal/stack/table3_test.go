package stack

import (
	"slices"
	"testing"
)

// TestTable3CoversEveryKind pins the table's shape: one row per kind,
// the guarantee groups the bench compares within, what the logfs engine
// can deliver, and the nesting of cells the crash model relies on.
func TestTable3CoversEveryKind(t *testing.T) {
	if len(table3) != len(Kinds()) {
		t.Errorf("table has %d rows for %d kinds", len(table3), len(Kinds()))
	}
	for _, kind := range Kinds() {
		n := 0
		for _, g := range table3 {
			if g.Kind == kind {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s has %d rows, want 1", kind, n)
		}
		g := GuaranteeOf(kind)
		if g.Source == "" {
			t.Errorf("%s: no Source", kind)
		}
		// The crash model reads atomic data as "every byte is the pre- or
		// post-state's", which needs sync data and metadata; the
		// namespace is matched whole, which needs atomic metadata.
		if g.AtomicData && (!g.SyncData || !g.SyncMeta) || !g.AtomicMeta {
			t.Errorf("%s: cells %+v do not nest as Table 3's levels do", kind, g.Cells)
		}
		if g.AppendsAtRelink && !g.SyncData {
			t.Errorf("%s: AppendsAtRelink deviates from sync data it does not promise", kind)
		}
		// The engine fences every write's data before it returns, and
		// its COW is the row's atomic data.
		if prof, ok := LogProfile(kind); ok && (!g.SyncData || prof.COW != g.AtomicData) {
			t.Errorf("%s: engine COW=%v fences data, row AtomicData=%v SyncData=%v",
				kind, prof.COW, g.AtomicData, g.SyncData)
		}
	}
	for kind, want := range map[string][]string{
		"splitfs-posix":  {"ext4-dax", "splitfs-posix"},
		"splitfs-sync":   {"pmfs", "nova-relaxed", "splitfs-sync"},
		"splitfs-strict": {"nova-strict", "strata", "splitfs-strict"},
	} {
		if got := Peers(kind); !slices.Equal(got, want) {
			t.Errorf("Peers(%s) = %v, want %v", kind, got, want)
		}
	}
}
