package crash

import (
	"testing"

	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

func TestStrictGuaranteeAtEveryCrashPoint(t *testing.T) {
	ops := RandomOps(21, 24)
	for point := 1; point <= len(ops); point += 3 {
		res, err := Run(Campaign{Kind: "splitfs-strict", Ops: ops,
			CrashAfter: point, Seed: uint64(point)})
		if err != nil {
			t.Fatalf("point %d: %v", point, err)
		}
		if res.Violation != "" {
			t.Fatalf("point %d: %s", point, res.Violation)
		}
	}
}

func TestPosixAndSyncGuarantees(t *testing.T) {
	ops := RandomOps(33, 30)
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync} {
		for point := 2; point <= len(ops); point += 5 {
			res, err := Run(Campaign{Kind: stack.SplitFSKind(mode), Ops: ops,
				CrashAfter: point, Seed: uint64(point) ^ 0x55})
			if err != nil {
				t.Fatalf("%v point %d: %v", mode, point, err)
			}
			if res.Violation != "" {
				t.Fatalf("%v point %d: %s", mode, point, res.Violation)
			}
		}
	}
}

func TestStrictReplaysOutstandingWrites(t *testing.T) {
	ops := []Op{
		{Path: "/f", Off: -1, Data: []byte("first"), Fsync: true},
		{Path: "/f", Off: -1, Data: []byte("second")}, // logged, never fsynced
	}
	res, err := Run(Campaign{Kind: "splitfs-strict", Ops: ops, CrashAfter: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatal(res.Violation)
	}
	if res.Replayed == 0 {
		t.Fatal("expected the unsynced strict write to be replayed")
	}
}

func TestCampaignSweepManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		ops := RandomOps(seed*7, 20)
		res, err := Run(Campaign{Kind: "splitfs-strict", Ops: ops,
			CrashAfter: len(ops), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != "" {
			t.Fatalf("seed %d: %s", seed, res.Violation)
		}
	}
}
