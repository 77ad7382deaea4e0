package crash

import (
	"slices"
	"strings"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

// TestAsyncRelinkSweepAllModes sweeps persistence events over workloads
// shaped for the fsync path — multi-file appends with per-file fsyncs and
// group syncs (OpSyncAll), the fragmenting family, whose relinks write
// back inodes that own extent-overflow blocks, and the scatter family,
// whose fsyncs relink many pieces by one vectored call — in all three
// modes.
// Relink, group commit and staging reclamation run on the calling
// goroutine, so the sweep crosses their events at every point; all of
// them must be violation-free.
func TestAsyncRelinkSweepAllModes(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, wl := range []struct {
				name string
				ops  []Op
			}{
				{"async", AsyncOps(53, 18)},
				{"fragment", FragmentOps(57, 0)},
				{"scatter", ScatterOps(61, 12)},
			} {
				t.Run(wl.name, func(t *testing.T) {
					// Bounded: the full windows run to thousands of events;
					// the deterministic sample still crosses dozens of
					// background-stage events (asserted below).
					res, err := Explore(ExploreConfig{Kind: stack.SplitFSKind(mode), Ops: wl.ops, Seed: 5, Sample: 160})
					if err != nil {
						t.Fatalf("explore: %v", err)
					}
					for _, v := range res.Violations {
						t.Errorf("violation at %v: %s", v.At, v.Msg)
					}
					if len(res.UnknownKinds) != 0 {
						t.Errorf("unknown event kinds: %v", res.UnknownKinds)
					}
					// The workload must actually produce background-pipeline
					// events, and the sweep must crash at some of them.
					var pipelineEvents, pipelineTested int64
					for k, n := range res.ByKind {
						if strings.Contains(k, "@relink") || strings.Contains(k, "@reclaim") {
							pipelineEvents += n
						}
					}
					for k, n := range res.TestedByKind {
						if strings.Contains(k, "@relink") || strings.Contains(k, "@reclaim") {
							pipelineTested += n
						}
					}
					if pipelineEvents == 0 {
						t.Fatalf("no background-pipeline events in window; ByKind=%v", res.ByKind)
					}
					if pipelineTested == 0 {
						t.Fatalf("sweep tested no background-pipeline events; TestedByKind=%v", res.TestedByKind)
					}
				})
			}
		})
	}
}

// TestGroupSyncDoubleCrash drives the multi-file group-commit drain
// through double crashes (a second crash inside recovery) to confirm
// recovery of group-committed batches is itself crash-consistent.
func TestGroupSyncDoubleCrash(t *testing.T) {
	res, err := Explore(ExploreConfig{
		Kind:         "splitfs-strict",
		Ops:          AsyncOps(29, 12),
		Seed:         3,
		Sample:       24,
		DoubleCrash:  true,
		DoubleSample: 3,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation at %v, then %v: %s", v.At, v.Second, v.Msg)
	}
	if len(res.DoubleTested) == 0 {
		t.Fatal("no double-crash runs executed")
	}
}

// TestUnknownEventKindsSurfaced verifies that crash points at event kinds
// or sources this build does not know land in Explore's UnknownKinds
// (labelPoints) instead of being silently bucketed under a known label.
func TestUnknownEventKindsSurfaced(t *testing.T) {
	record := []pmem.Event{
		{Seq: 11, Kind: pmem.EvStoreNT, Src: pmem.SrcForeground},
		{Seq: 12, Kind: pmem.EventKind(57), Src: pmem.SrcForeground},
		{Seq: 13, Kind: pmem.EvFence, Src: pmem.EventSource(9)},
	}
	var points []pmem.CrashPoint
	for _, ev := range record {
		points = append(points, pmem.CrashPoint{Ev: ev})
	}
	byKind, unknown := labelPoints(points)
	if want := []string{"fence@unknown-src-9", "unknown-kind-57"}; !slices.Equal(unknown, want) {
		t.Fatalf("unknown labels %v, want %v", unknown, want)
	}
	if byKind["storent"] != 1 || byKind["unknown-kind-57"] != 1 || byKind["fence@unknown-src-9"] != 1 {
		t.Errorf("kinds mis-bucketed: %v", byKind)
	}
}
