package harness

import (
	"testing"

	"splitfs/internal/sim"
)

// TestLedger runs the ledger's experiments, with Table 2's device and the
// ablation's whole runs, and lists the ledger rows none of their cells
// charges: a cost no experiment pays is a dead row, to be deleted. Every
// cell's rows must sum to its total, and the ledger's Table 1 cells must
// agree with Table 1: the same totals, and a SplitFS-POSIX append whose
// overhead is U-Split's alone.
func TestLedger(t *testing.T) {
	cells, err := ledgerCells(append([]string{"table2", "ablation"}, ledgerExps...)...)
	if err != nil {
		t.Fatal(err)
	}
	charged := map[*sim.Row]bool{}
	for _, c := range cells {
		for _, e := range c.rows.Entries() {
			charged[e.Row] = true
		}
	}
	var dead []string
	for _, r := range sim.Rows() {
		if !charged[r] {
			dead = append(dead, r.Name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("no experiment charges %v", dead)
	}
	t.Logf("%d rows charged in %d cells", len(charged), len(cells))

	tbl := ledgerTable(cells)
	t1 := runT(t, "table1")
	for _, kind := range []string{"ext4-dax", "pmfs", "nova-strict", "splitfs-strict", "splitfs-posix"} {
		if got, want := metric(t, tbl, "table1/append/"+kind+"/total"), metric(t, t1, "append/"+kind); int64(got) != int64(want) {
			t.Errorf("%s: ledger total %.1f ns/op, Table 1 %.0f", kind, got, want)
		}
	}
	if got, want := metric(t, tbl, "table1/overhead/splitfs-posix/layer/U-Split"), metric(t, t1, "overhead/splitfs-posix"); int64(got) != int64(want) {
		t.Errorf("splitfs-posix: U-Split overhead %.1f ns/op, Table 1's overhead %.0f", got, want)
	}
	if got := metric(t, tbl, "table1/overhead/splitfs-strict/layer/K-Split"); got != 0 {
		t.Errorf("splitfs-strict appends paid %.1f ns/op of K-Split", got)
	}
}
