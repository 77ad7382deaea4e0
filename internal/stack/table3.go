package stack

// Table 3 as data. The paper compares systems only at equal guarantees,
// so whatever depends on one — the bench groups (Peers), the crash
// oracle (internal/crash's model), the logfs engines' data path
// (LogProfile) — reads its kind's row here, and a guarantee changes only
// by editing its row.

// Cells are Table 3's columns: whether a data or a metadata operation
// is durable when it returns (sync), and all or nothing across a crash
// (atomic).
type Cells struct{ SyncData, AtomicData, SyncMeta, AtomicMeta bool }

// Guarantee is one kind's row.
type Guarantee struct {
	Kind string
	Cells
	Source string // where the paper states the row
	// AppendsAtRelink deviates from SyncData: an append is staged and
	// fenced but logged nowhere, so it is durable at the next relink
	// (fsync, close, truncate, rename), not when the write returns.
	AppendsAtRelink bool
}

// The paper's three levels, each nested in the next.
var (
	posixLevel  = Cells{AtomicMeta: true}
	syncLevel   = Cells{SyncData: true, SyncMeta: true, AtomicMeta: true}
	strictLevel = Cells{SyncData: true, AtomicData: true, SyncMeta: true, AtomicMeta: true}
)

// table3 is in the paper's grouping order: each level's baselines, then
// SplitFS at that level.
var table3 = []Guarantee{
	{"ext4-dax", posixLevel, "Table 3 (POSIX, equivalent)", false},
	{"splitfs-posix", posixLevel, "Table 3 (POSIX)", false},
	{"pmfs", syncLevel, "Table 3 (sync, equivalent)", false},
	{"nova-relaxed", syncLevel, "Table 3 (sync, equivalent)", false},
	{"splitfs-sync", syncLevel, "Table 3 (sync)", true},
	{"nova-strict", strictLevel, "Table 3 (strict, equivalent)", false},
	{"strata", strictLevel, "Table 3 (strict, equivalent)", false},
	{"splitfs-strict", strictLevel, "Table 3 (strict)", false},
}

// GuaranteeOf returns the row of kind, an unwrapped kind name; it panics
// on a name that has none.
func GuaranteeOf(kind string) Guarantee {
	for _, g := range table3 {
		if g.Kind == kind {
			return g
		}
	}
	panic("stack: no Table 3 row for " + kind)
}

// Peers returns the kinds whose cells equal kind's, in table order: the
// group the paper compares kind within.
func Peers(kind string) (kinds []string) {
	c := GuaranteeOf(kind).Cells
	for _, g := range table3 {
		if g.Cells == c {
			kinds = append(kinds, g.Kind)
		}
	}
	return kinds
}
