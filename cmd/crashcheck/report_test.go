package main

import (
	"slices"
	"strings"
	"testing"

	"splitfs/internal/crash"
	"splitfs/internal/splitfs"
)

func TestWriteViolation(t *testing.T) {
	var b strings.Builder
	writeViolation(&b, "", crash.Violation{Mode: splitfs.Strict, Seed: 3, Event: 41, DoubleEvent: 7, Msg: "lost write"})
	writeViolation(&b, "SERVED ", crash.Violation{Mode: splitfs.POSIX, Seed: 1, Event: 9, Msg: "dup rename", Flight: "t0: rename\n"})
	want := "VIOLATION mode=strict seed=3 event=41 double=7: lost write\n" +
		"SERVED VIOLATION mode=posix seed=1 event=9 double=0: dup rename\n" +
		"flight traces:\nt0: rename\n"
	if b.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestMinimizerSweep: the sample is capped, and the violating
// campaign's witness events are pinned.
func TestMinimizerSweep(t *testing.T) {
	vios := []crash.Violation{
		{Mode: splitfs.Strict, Seed: 2, Event: 40},
		{Mode: splitfs.Strict, Seed: 2, Event: 0}, // boundary run: nothing to pin
		{Mode: splitfs.Strict, Seed: 2, Event: 43},
	}
	for _, c := range []struct{ sample, most, want int }{{0, 32, 32}, {256, 32, 32}, {8, 32, 8}} {
		sample, include := minimizerSweep(c.sample, c.most, vios)
		if sample != c.want || !slices.Equal(include, []int64{40, 43}) {
			t.Errorf("minimizerSweep(%d, %d) = %d, %v; want %d, [40 43]", c.sample, c.most, sample, include, c.want)
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
