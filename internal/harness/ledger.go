package harness

import (
	"fmt"

	"splitfs/internal/sim"
)

// The ledger experiment splits the simulated nanoseconds of every cell of
// Table 1, Table 6, Fig 5, Fig 6, the macro matrix and the server stream
// by cost row (internal/sim/costs.go) and by layer, per operation. A
// cell's rows must sum exactly to its total: the experiment fails if one
// does not. It also splits Table 1's software overhead of the three
// SplitFS modes by layer.

func init() {
	register("ledger", "Simulated ns/op of each cell by cost row and layer", ledgerExp)
}

// ledgerExps are the experiments whose cells the ledger splits.
var ledgerExps = []string{"table1", "table6", "fig5", "fig6", "macro", "server"}

// cellRows is one cell: every measurement under its name, summed.
type cellRows struct {
	name string
	ops  int64
	rows sim.Ledger
}

// ledgerCells runs the experiments ids and returns their cells in the
// order they were measured, then Table 1's append on splitfs-sync, a mode
// Table 1 does not run. It fails if a cell's rows do not sum to its total.
// Not safe to run concurrently with another experiment.
func ledgerCells(ids ...string) ([]*cellRows, error) {
	var cells []*cellRows
	byName := map[string]*cellRows{}
	exp := ""
	ledgerCell = func(cell string, ops int64, rows sim.Ledger) {
		c := byName[exp+"/"+cell]
		if c == nil {
			c = &cellRows{name: exp + "/" + cell}
			byName[c.name], cells = c, append(cells, c)
		}
		c.ops += ops
		c.rows = c.rows.Add(rows)
	}
	defer func() { ledgerCell = nil }()
	for _, id := range ids {
		e, ok := Get(id)
		if !ok {
			return nil, fmt.Errorf("experiment %q not registered", id)
		}
		exp = id
		if _, err := e.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
	}
	exp = "table1"
	if _, err := appendCell("splitfs-sync"); err != nil {
		return nil, err
	}
	for _, c := range cells {
		if sum, _ := split(c.rows.Entries(), all); sum != c.rows.Total {
			return nil, fmt.Errorf("%s: rows sum to %d ns, its total is %d ns", c.name, sum, c.rows.Total)
		}
	}
	return cells, nil
}

func all(sim.Entry) bool { return true }

// split sums the entries keep admits, in all and by layer.
func split(es []sim.Entry, keep func(sim.Entry) bool) (sum int64, layers map[sim.Layer]int64) {
	layers = map[sim.Layer]int64{}
	for _, e := range es {
		if keep(e) {
			sum += e.Ns
			layers[e.Row.Layer] += e.Ns
		}
	}
	return sum, layers
}

func ledgerExp() (*Table, error) {
	cells, err := ledgerCells(ledgerExps...)
	if err != nil {
		return nil, err
	}
	return ledgerTable(cells), nil
}

// ledgerTable renders cells: each one's total, layers and rows per
// operation, then Table 1's overhead on the three SplitFS modes.
func ledgerTable(cells []*cellRows) *Table {
	t := &Table{
		ID:      "ledger",
		Title:   "Simulated ns/op of each cell, by cost row and by layer",
		Note:    "ops: what the cell's experiment divides by (one run for fig5 and fig6's utilities)",
		Headers: []string{"Cell", "ops", "Row", "Layer", "Category", "ns/op"},
	}
	// add renders a cell's total, then its layers, as rows and metrics.
	add := func(name string, ops int64, what string, sum int64, layers map[sim.Layer]int64) {
		per := func(ns int64) float64 { return float64(ns) / float64(ops) }
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(ops), what, "", "", f1(per(sum))})
		t.AddMetric(name+"/"+what, per(sum), "ns/op")
		for l := range sim.NumLayers {
			if ns, ok := layers[l]; ok {
				t.Rows = append(t.Rows, []string{"", "", "", l.String(), "", f1(per(ns))})
				t.AddMetric(name+"/layer/"+l.String(), per(ns), "ns/op")
			}
		}
	}
	byName := map[string]*cellRows{}
	for _, c := range cells {
		byName[c.name] = c
		es := c.rows.Entries()
		sum, layers := split(es, all)
		add(c.name, c.ops, "total", sum, layers)
		for _, e := range es {
			per := float64(e.Ns) / float64(c.ops)
			t.Rows = append(t.Rows, []string{"", "", e.Row.Name, e.Row.Layer.String(), e.Cat.String(), f1(per)})
			t.AddMetric(c.name+"/row/"+e.Row.Name+"/"+e.Cat.String(), per, "ns/op")
		}
	}
	// Table 1's software overhead: all but the data's time (§5.7).
	for _, mode := range []string{"splitfs-posix", "splitfs-sync", "splitfs-strict"} {
		c := byName["table1/append/"+mode]
		sum, layers := split(c.rows.Entries(), func(e sim.Entry) bool { return e.Cat != sim.CatPMData })
		layers[sim.LayerUSplit] += 0 // listed when zero, as K-Split's
		layers[sim.LayerKSplit] += 0
		add("table1/overhead/"+mode, c.ops, "overhead", sum, layers)
	}
	return t
}
