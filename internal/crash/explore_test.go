package crash

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

// The acceptance sweep: every persistence event of a strict-mode
// workload is a crash point, and the guarantee must hold at all of them.
func TestStrictSweepEveryEvent(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	res, err := Explore(ExploreConfig{Kind: "splitfs-strict", Ops: RandomOps(21, n), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvents == 0 || res.Tested != int(res.TotalPoints) {
		t.Fatalf("tested %d of %d crash points", res.Tested, res.TotalPoints)
	}
	if len(res.TestedByWay) != 4 {
		t.Fatalf("the sweep took %v: not four ways", res.TestedByWay)
	}
	for _, v := range res.Violations {
		t.Errorf("%v: %s", v.At, v.Msg)
	}
	if len(res.ByKind) < 3 {
		t.Fatalf("coverage stats missing kinds: %v", res.ByKind)
	}
}

// Sampled event sweeps for the POSIX and sync oracles on write-heavy
// workloads.
func TestPosixAndSyncEventSweep(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync} {
		res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: RandomOps(33, 15),
			Seed: 7, Sample: 60})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v %v: %s", mode, v.At, v.Msg)
		}
	}
}

// Metadata-heavy workloads across all three modes, sampled.
func TestMetadataWorkloadSweep(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: MetadataOps(seed*11, 15),
				Seed: seed, Sample: 40})
			if err != nil {
				t.Fatalf("%v seed %d: %v", mode, seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%v seed %d %v: %s", mode, seed, v.At, v.Msg)
			}
		}
	}
}

// The metadata campaign with the commits thinned out (MetaBurstOps): most
// crash points follow a run of metadata operations no journal commit has
// covered, so in sync and strict mode it is the op log that has to bring
// them back — the sweep must show recoveries that really redid operations,
// and in POSIX mode, which promises no such thing, none.
func TestMetaBurstSweep(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		replayed := 0
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: MetaBurstOps(seed*7, 40),
				Seed: seed, Sample: 60})
			if err != nil {
				t.Fatalf("%v seed %d: %v", mode, seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%v seed %d %v: %s", mode, seed, v.At, v.Msg)
			}
			replayed += res.MetaReplayed
		}
		if (mode == splitfs.POSIX) != (replayed == 0) {
			t.Errorf("%v: recoveries redid %d metadata operations over the sweep", mode, replayed)
		}
	}
}

// Double-crash campaigns: crash at an event, then crash again inside
// RecoverFS/Mount, recover again, and the guarantee must still hold.
func TestDoubleCrashSweep(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: MetadataOps(5, 10),
			Seed: 3, Sample: 12, DoubleCrash: true, DoubleSample: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.DoubleTested) == 0 {
			t.Fatalf("%v: no double-crash points tested", mode)
		}
		for _, v := range res.Violations {
			t.Errorf("%v %v, then %v: %s", mode, v.At, v.Second, v.Msg)
		}
	}
}

// Double crashes over the thinned-commit campaign: the first recovery has
// metadata operations to redo, and the second crash must be able to cut
// that short — after part of it committed, before the log is zeroed — so
// that the second recovery resumes from the stamp the first advanced,
// neither repeating an operation the interrupted replay committed nor
// dropping one it had not reached.
func TestDoubleCrashInsideMetaReplay(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.Sync, splitfs.Strict} {
		res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: MetaBurstOps(23, 40),
			Seed: 5, Sample: 16, DoubleCrash: true, DoubleSample: 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v %v, then %v: %s", mode, v.At, v.Second, v.Msg)
		}
		if res.MetaReplayed == 0 || res.DoubleInMetaReplay == 0 {
			t.Errorf("%v: %d metadata operations redone, %d second crashes (of %v by way) cut their replay short: the sweep did not reach it",
				mode, res.MetaReplayed, res.DoubleInMetaReplay, res.DoubleTested)
		}
		t.Logf("%v: %d redone, %d skipped, %d second crashes (of %v by way) cut a metadata replay short",
			mode, res.MetaReplayed, res.MetaSkipped, res.DoubleInMetaReplay, res.DoubleTested)
	}
}

// An orphan-inode campaign: unlink files while handles are open, keep
// writing through other handles, crash at events around the unlink.
func TestOrphanUnlinkCampaign(t *testing.T) {
	ops := []Op{
		{Path: "/t", Off: -1, Data: []byte("tmpfile-contents"), Fsync: true},
		{Kind: OpUnlink, Path: "/t"}, // Close=false: unlink-while-open
		{Path: "/keep", Off: -1, Data: []byte("other data"), Fsync: true},
		{Kind: OpCreate, Path: "/t2", Close: true},
	}
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Strict} {
		res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: ops, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v %v: %s", mode, v.At, v.Msg)
		}
	}
}

// A write that extends the file is staged whole, including the part that
// lands on bytes an earlier overwrite changed in place. Until the fsync
// relinks it, the media under that part holds the in-place overwrite's
// bytes (or, in POSIX mode, possibly still the synced ones) — values the
// model's logical content no longer records, so the oracle must not hold
// the byte to it. The three ops are the minimized form of two of the
// violations PR 22's unsampled sweep reported at seed 3 (posix/async and
// sync/async: "/a3 byte 2189 is neither synced nor durable value").
func TestStagedWriteOverInPlaceOverwrite(t *testing.T) {
	ops := []Op{
		{Path: "/a3", Off: 2105, Data: bytes.Repeat([]byte{1}, 779), Fsync: true},
		{Path: "/a3", Off: 2189, Data: bytes.Repeat([]byte{2}, 439)},
		{Path: "/a3", Off: 1064, Data: bytes.Repeat([]byte{3}, 2553), Fsync: true},
	}
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: ops, Seed: 3, DoubleCrash: true, DoubleSample: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("%v %v: %s", mode, v.At, v.Msg)
		}
	}
}

// TestCrashPointsPinsIncludeFirst: a sampled sweep spends its budget one
// point an event, on drawn events, always with the window's last; an
// unsampled one takes every point, four ways an event. Each include point
// the window has comes first, matched by event number and way, and one it
// lacks is dropped.
func TestCrashPointsPinsIncludeFirst(t *testing.T) {
	var window []pmem.Event
	for seq := int64(11); seq <= 30; seq++ {
		window = append(window, pmem.Event{Seq: seq, Kind: pmem.EvStoreNT, Off: seq * 64, Len: 64})
	}
	include := []pmem.CrashPoint{{Ev: pmem.Event{Seq: 17}, Way: pmem.Land}, {Ev: pmem.Event{Seq: 40}}, {Ev: pmem.Event{Seq: 12}, Way: 1}}
	pinned := []pmem.CrashPoint{{Ev: window[6], Way: pmem.Land}, {Ev: window[1], Way: 1}}
	for _, c := range []struct{ sample, want int }{{5, 5}, {20, 20}, {512, 20}, {0, 80}} {
		all, picked := crashPoints(window, c.sample, include, sim.NewRNG(1))
		events := map[int64]bool{}
		for _, p := range picked[2:] {
			events[p.Ev.Seq] = true
		}
		n := len(picked) - 2 // besides the pinned two, which a draw may have taken too
		ok := c.sample == 0 && n == 78 || c.sample > 0 && len(events) == n && n >= c.want-2 && n <= c.want
		if len(all) != 80 || !slices.Equal(picked[:2], pinned) || !ok || picked[len(picked)-1].Ev != window[19] {
			t.Errorf("sample %d: %d points, picked %v", c.sample, len(all), picked)
		}
	}
}

// TestEverySecondCrashPoint: with DoubleSample 0 a sweep crashes again at
// every crash point of each recovery's trace, as it crashes at every
// point of the workload's with Sample 0 — pmem.CrashPoints' count over
// the traces, four ways an event.
func TestEverySecondCrashPoint(t *testing.T) {
	cfg := ExploreConfig{Kind: "splitfs-posix", Ops: []Op{{Path: "/a", Data: []byte("x")}}, DoubleCrash: true}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%v, then %v: %s", v.At, v.Second, v.Msg)
	}
	record, err := Run(Campaign{Kind: cfg.Kind, Ops: cfg.Ops, CrashAfter: len(cfg.Ops), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var want, got int64
	for p := range pmem.CrashPoints(record.Trace, tears) {
		img, _, err := crashed(Campaign{Kind: cfg.Kind, Ops: cfg.Ops, CrashAt: p})
		if err != nil {
			t.Fatal(err)
		}
		for range pmem.CrashPoints(img.recover(&Result{}, pmem.CrashPoint{}, true), tears) {
			want++
		}
	}
	for _, n := range res.DoubleTested {
		got += n
	}
	if got != want || want != 208 || res.DoubleTested["land"] == 0 {
		t.Errorf("%d second crashes (%v by way), want every point of the recoveries' traces: %d", got, res.DoubleTested, want)
	}
	t.Logf("%d first points, %d second", res.Tested, got)
}

// TestSampledSecondCrashesLand: a sampled sweep draws its second crashes
// from the recoveries' crash points as it draws its first ones, so a
// strict sweep's include points where a store of the recovery lands whole.
// Its counters are pinned, so that a change to where second crashes land
// — to what recovery stores, or to how the first crash's image is
// recovered — shows here.
func TestSampledSecondCrashesLand(t *testing.T) {
	res, err := Explore(ExploreConfig{Kind: "splitfs-strict", Ops: MetaBurstOps(23, 12), Seed: 5,
		Sample: 4, DoubleCrash: true, DoubleSample: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%v, then %v: %s", v.At, v.Second, v.Msg)
	}
	want := map[string]int64{"land": 6, "revert": 9, "tear1": 7, "tear2": 10}
	if !maps.Equal(res.DoubleTested, want) {
		t.Errorf("second crashes by way %v, want %v", res.DoubleTested, want)
	}
	if res.Runs != 37 || res.Tested != 4 || res.DoubleInMetaReplay != 10 || res.MetaReplayed != 11 || res.MetaSkipped != 9 {
		t.Errorf("%d runs, %d first crashes, %d second crashes inside a metadata replay, %d redone, %d skipped; want 37, 4, 10, 11, 9",
			res.Runs, res.Tested, res.DoubleInMetaReplay, res.MetaReplayed, res.MetaSkipped)
	}
}

// TestBaselineKindsSweep: a campaign takes any stack kind. The log
// engines — nova-strict, nova-relaxed, pmfs and strata's shared area —
// are crashed at sampled points of a write workload, each recovered with
// its own Mount, block-accounted by Stack.Check and held to its Table 3
// row, with no violation.
func TestBaselineKindsSweep(t *testing.T) {
	for _, kind := range []string{"nova-strict", "nova-relaxed", "pmfs", "strata"} {
		res, err := Explore(ExploreConfig{Kind: kind, Ops: RandomOps(13, 15), Seed: 1, Sample: 64})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Tested == 0 {
			t.Fatalf("%s: no crash point tested", kind)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %v: %s", kind, v.At, v.Msg)
		}
	}
}
