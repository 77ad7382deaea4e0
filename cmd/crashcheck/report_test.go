package main

import (
	"slices"
	"strings"
	"testing"

	"splitfs/internal/crash"
	"splitfs/internal/pmem"
)

// TestWriteViolation: the report and the violation line name both crash
// points of a double-crash breach as pmem.CrashPoint prints them, the
// first alone when the breach needed no second, and neither for a
// boundary run.
func TestWriteViolation(t *testing.T) {
	second := pmem.CrashPoint{Ev: pmem.Event{Seq: 807, Kind: pmem.EvFence}, Way: 1}
	vios := []crash.Violation{
		{Kind: "splitfs-strict", Seed: 3, At: point(41, pmem.Land), Second: second, Msg: "lost write"},
		{Kind: "splitfs-sync", Seed: 5, Msg: "bad end state"},
	}
	var b strings.Builder
	for _, v := range vios {
		writeViolation(&b, "", v)
	}
	writeViolation(&b, "SERVED ", crash.Violation{Kind: "splitfs-posix", Seed: 1, At: point(9, 2), Msg: "dup rename", Flight: "t0: rename\n"})
	want := "VIOLATION kind=splitfs-strict seed=3 at event 41 (storent), land, again in recovery at event 807 (fence), tear1: lost write\n" +
		"VIOLATION kind=splitfs-sync seed=5 after the workload: bad end state\n" +
		"SERVED VIOLATION kind=splitfs-posix seed=1 at event 9 (storent), tear2: dup rename\n" +
		"flight traces:\nt0: rename\n"
	if b.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", b.String(), want)
	}
	line := directJob("strict/meta/seed1", crash.ExploreConfig{}).violation(vios[0])
	if want := "VIOLATION strict/meta/seed1 at event 41 (storent), land, again in recovery at event 807 (fence), tear1: lost write"; line != want {
		t.Errorf("violation line:\n%s\nwant:\n%s", line, want)
	}
}

func point(seq int64, way pmem.Way) pmem.CrashPoint {
	return pmem.CrashPoint{Ev: pmem.Event{Seq: seq, Kind: pmem.EvStoreNT}, Way: way}
}

// TestMinimizerSweep: the sample is capped, and the violating
// campaign's witness points, event and way, are pinned.
func TestMinimizerSweep(t *testing.T) {
	vios := []crash.Violation{
		{Kind: "splitfs-strict", Seed: 2, At: point(40, pmem.Land)},
		{Kind: "splitfs-strict", Seed: 2}, // boundary run: nothing to pin
		{Kind: "splitfs-strict", Seed: 2, At: point(43, pmem.Revert)},
	}
	want := []pmem.CrashPoint{point(40, pmem.Land), point(43, pmem.Revert)}
	for _, c := range []struct{ sample, most, want int }{{0, 32, 32}, {256, 32, 32}, {8, 32, 8}} {
		sample, include := minimizerSweep(c.sample, c.most, vios)
		if sample != c.want || !slices.Equal(include, want) {
			t.Errorf("minimizerSweep(%d, %d) = %d, %v; want %d, %v", c.sample, c.most, sample, include, c.want, want)
		}
	}
}

// TestReportRepro: one reproducer shape for both campaign kinds — a
// served one labels every op with its tenant, a direct one does not.
func TestReportRepro(t *testing.T) {
	ops := []crash.Op{{Kind: crash.OpRename, Path: "/a", Path2: "/b"}, {Kind: crash.OpSyncAll}}
	var direct, served strings.Builder
	reportRepro(&direct, "minimal reproducer: 2 ops\n", false, [][]crash.Op{ops})
	reportRepro(&served, "minimal served reproducer\n", true, [][]crash.Op{nil, ops[:1]})
	if want := "minimal reproducer: 2 ops\n" +
		"  op 1: rename /a /b off=0 size=0 len=0 fsync=false close=false\n" +
		"  op 2: syncall   off=0 size=0 len=0 fsync=false close=false\n"; direct.String() != want {
		t.Errorf("direct:\n%s\nwant:\n%s", direct.String(), want)
	}
	if want := "minimal served reproducer\n" +
		"  tenant 1 op 1: rename /a /b off=0 size=0 len=0 fsync=false close=false\n"; served.String() != want {
		t.Errorf("served:\n%s\nwant:\n%s", served.String(), want)
	}
}
