package harness

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"splitfs/internal/sim"
)

// The harness tests verify that every experiment runs and that the
// paper's headline shape claims hold on the reproduced tables.

func runT(t *testing.T, id string) *Table {
	t.Helper()
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
	return tbl
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.Fields(tbl.Rows[row][col])[0], "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
	}
	return v
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "recovery", "resources", "ablation"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d experiments", len(All()))
	}
}

func TestTable1Shape(t *testing.T) {
	tbl := runT(t, "table1")
	// Row order: ext4, pmfs, nova-strict, splitfs-strict, splitfs-posix.
	appendNs := func(r int) float64 { return cell(t, tbl, r, 1) }
	if !(appendNs(0) > appendNs(1) && appendNs(1) > appendNs(2) &&
		appendNs(2) > appendNs(3) && appendNs(3) > appendNs(4)) {
		t.Fatalf("Table 1 ordering broken: %v", tbl.Rows)
	}
	// Paper ratios: ext4/splitfs-posix ~7.8x.
	if r := appendNs(0) / appendNs(4); r < 5 || r > 11 {
		t.Fatalf("ext4/splitfs-posix append ratio = %.1f, want ~7.8", r)
	}
}

func TestTable2Anchors(t *testing.T) {
	tbl := runT(t, "table2")
	if got := cell(t, tbl, 0, 1); got < 160 || got > 180 {
		t.Fatalf("seq read latency = %v", got)
	}
	if got := cell(t, tbl, 2, 1); got < 80 || got > 100 {
		t.Fatalf("store+flush+fence = %v", got)
	}
}

func TestTable6Shape(t *testing.T) {
	tbl := runT(t, "table6")
	get := func(sys string, col int) float64 {
		for r, row := range tbl.Rows {
			if row[0] == sys {
				return cell(t, tbl, r, col)
			}
		}
		t.Fatalf("row %s missing", sys)
		return 0
	}
	// Columns: 1=strict 2=sync 3=posix 4=ext4.
	if !(get("append", 4) > 4*get("append", 3)) {
		t.Fatal("SplitFS appends must be several times faster than ext4")
	}
	if !(get("fsync", 4) > 2*get("fsync", 1)) {
		t.Fatal("SplitFS fsync must be far cheaper than ext4 fsync")
	}
	// Relink is a metadata-only move (DESIGN.md, "Relink is a move") and
	// its inode write-backs store what changed (DESIGN.md, "Inode
	// write-back"): the fsync row stays within 5 % of the paper's, both
	// ways. Above, an allocation, a second write-back, an extra journal
	// image or a whole-record flush crept back in (9.23 / 8.73 / 9.22 µs
	// with the first three, 7.60 / 7.60 / 7.57 with the last); below, a
	// write-back skipped something it had to store.
	for col, paper := range map[int]float64{1: 6.85, 2: 6.80, 3: 6.80} {
		if got := get("fsync", col); got > 1.05*paper || got < 0.95*paper {
			t.Fatalf("SplitFS fsync (column %d) = %.2f µs, not within 5 %% of the paper's %.2f", col, got, paper)
		}
	}
	// A synchronous unlink costs one log record and one fence over a POSIX
	// one, not a journal commit (DESIGN.md, "Synchronous metadata without
	// a commit"): the row stays within 15 % of the paper's in all three
	// modes (it was 17.85 / 17.73 µs in strict and sync with the commit).
	for col, paper := range map[int]float64{1: 14.60, 2: 13.56, 3: 14.33} {
		if got := get("unlink", col); got > 1.15*paper {
			t.Fatalf("SplitFS unlink (column %d) = %.2f µs, more than 1.15x the paper's %.2f", col, got, paper)
		}
	}
	if !(get("unlink", 1) > get("unlink", 4)) {
		t.Fatal("SplitFS unlink must cost more than ext4 (munmaps)")
	}
	if !(get("open", 1) >= get("open", 3) && get("open", 3) > get("open", 4)) {
		t.Fatal("open cost must rise with stronger modes")
	}
}

func TestFig3Shape(t *testing.T) {
	tbl := runT(t, "fig3")
	// Appends: staging must beat split-arch alone; relink must beat
	// staging (paper: ~2x then ~2.5x more).
	appends := func(r int) float64 { return cell(t, tbl, r, 3) }
	if !(appends(2) > appends(1) && appends(3) > 1.5*appends(2)) {
		t.Fatalf("Fig 3 technique progression broken: %v", tbl.Rows)
	}
	// Overwrites: split architecture alone must already beat ext4 2x+.
	if ow := cell(t, tbl, 1, 1) / cell(t, tbl, 0, 1); ow < 2 {
		t.Fatalf("split architecture overwrite gain = %.2f, want > 2", ow)
	}
}

func TestFig4Shape(t *testing.T) {
	tbl := runT(t, "fig4")
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[1]] = row
	}
	pf := func(fs string, col int) float64 {
		v, err := strconv.ParseFloat(byName[fs][col], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Columns: 2 seq read, 3 rand read, 4 seq write, 5 rand write, 6 append.
	for _, pair := range [][2]string{
		{"splitfs-posix", "ext4-dax"},
		{"splitfs-sync", "pmfs"},
		{"splitfs-strict", "nova-strict"},
	} {
		for col := 2; col <= 6; col++ {
			if pf(pair[0], col) < pf(pair[1], col) {
				t.Errorf("%s slower than %s on pattern col %d", pair[0], pair[1], col)
			}
		}
	}
	// Strata appends must trail everything in the strict group (double
	// write).
	if pf("strata", 6) > pf("nova-strict", 6) {
		t.Error("Strata appends should trail NOVA-strict")
	}
}

// TestRecoveryScalesLinearly: replay time is a fixed cost — mapping and
// zeroing the log — plus a per-entry cost that stays the same from 100
// entries to the paper's 2 M: each step between two rows costs within 1.5x
// of every other step per entry. And the 2 000-entry replay stays under
// 20 ms: it took 77 ms while every replayed write committed the journal.
func TestRecoveryScalesLinearly(t *testing.T) {
	tbl := runT(t, "recovery")
	if len(tbl.Rows) != len(recoveryPoints) {
		t.Fatalf("%d recovery points, want %d", len(tbl.Rows), len(recoveryPoints))
	}
	var lo, hi float64
	for r := 1; r < len(tbl.Rows); r++ {
		step := (cell(t, tbl, r, 2) - cell(t, tbl, r-1, 2)) / (cell(t, tbl, r, 0) - cell(t, tbl, r-1, 0))
		if r == 1 || step < lo {
			lo = step
		}
		hi = max(hi, step)
	}
	if lo <= 0 || hi > 1.5*lo {
		t.Fatalf("recovery not linear: a step between two rows costs %.4f to %.4f ms per entry", lo, hi)
	}
	for r, pt := range recoveryPoints {
		if pt.entries == 2000 {
			if ms := cell(t, tbl, r, 2); ms > 20 {
				t.Fatalf("2 000 entries replay in %.2f ms, want at most 20", ms)
			}
		}
	}
}

func TestAblationShape(t *testing.T) {
	tbl := runT(t, "ablation")
	get := func(prefix string, col int) float64 {
		for r, row := range tbl.Rows {
			if strings.HasPrefix(row[0], prefix) {
				return cell(t, tbl, r, col)
			}
		}
		t.Fatalf("ablation row %q missing", prefix)
		return 0
	}
	def := get("default", 2)
	if dram := get("staging in DRAM", 2); dram > def*0.6 {
		t.Fatalf("DRAM staging appends = %.1f vs default %.1f; must lose clearly (§4)", dram, def)
	}
	if noRelink := get("no relink", 2); noRelink > def*0.7 {
		t.Fatalf("no-relink appends = %.1f vs default %.1f; relink must matter", noRelink, def)
	}
	// The huge-page switch must act (it was a no-op while staging files
	// were never 2 MB-aligned): its row differs from the default's in the
	// page-fault category, by the 4 KB population of the eight 8 MB staging
	// files (8 x 2048 x 2.2 us) against their 2 MB population (8 x 4 x 3.6).
	hugeFaults, smallFaults := get("default", 3), get("huge pages disabled", 3)
	if want := 8 * (2048*float64(sim.PageFault4KNs) - 4*float64(sim.PageFault2MNs)) / 1e3; math.Abs(smallFaults-hugeFaults-want) > 0.1 {
		t.Fatalf("page faults: default %.1f us, huge pages disabled %.1f us; want them %.1f us apart",
			hugeFaults, smallFaults, want)
	}
}
