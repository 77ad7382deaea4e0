package crash

import (
	"testing"

	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

// TestFullAsyncSweepAllModes is the unsampled acceptance sweep: every
// persistence event of an async-relink workload (multi-file appends,
// per-file fsyncs, group syncs) is crashed at, in all three modes, and
// must be violation-free. Slow (thousands of runs); -short skips it in
// favour of the bounded TestAsyncRelinkSweepAllModes.
func TestFullAsyncSweepAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full event sweep in -short mode")
	}
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := Explore(ExploreConfig{
				Kind: stack.SplitFSKind(mode),
				Ops:  AsyncOps(53, 14),
				Seed: 5,
			})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if int64(res.Tested) != res.TotalPoints {
				t.Fatalf("swept %d of %d crash points", res.Tested, res.TotalPoints)
			}
			for _, v := range res.Violations {
				t.Errorf("violation at %v: %s", v.At, v.Msg)
			}
			if len(res.UnknownKinds) != 0 {
				t.Errorf("unknown event kinds: %v", res.UnknownKinds)
			}
			t.Logf("%v: %d events, all %d crash points crashed, 0 violations; coverage %v, %v",
				mode, res.TotalEvents, res.TotalPoints, res.ByKind, res.TestedByWay)
		})
	}
}
