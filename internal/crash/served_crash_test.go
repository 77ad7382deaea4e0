package crash

import (
	"reflect"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

// TestServedOpsDiscipline checks the generator invariants the served
// oracles depend on: workloads end on a SyncAll barrier, never reuse a
// name (create and rename targets are always fresh), keep every write a
// positional append at the tracked size, keep data single-chunk, and
// close before unlink.
func TestServedOpsDiscipline(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		ops := ServedOps(seed, 40)
		if len(ops) == 0 || ops[len(ops)-1].Kind != OpSyncAll {
			t.Fatalf("seed %d: workload does not end with OpSyncAll", seed)
		}
		used := map[string]bool{}
		sizes := map[string]int64{}
		for i, op := range ops {
			switch op.Kind {
			case OpCreate:
				if used[op.Path] {
					t.Fatalf("seed %d op %d: create reuses name %s", seed, i, op.Path)
				}
				used[op.Path] = true
				sizes[op.Path] = 0
			case OpWrite:
				if op.Off != sizes[op.Path] {
					t.Fatalf("seed %d op %d: write at %d, size is %d (not an append)",
						seed, i, op.Off, sizes[op.Path])
				}
				if len(op.Data) == 0 || len(op.Data) > 1800 {
					t.Fatalf("seed %d op %d: data length %d outside (0, 1800]",
						seed, i, len(op.Data))
				}
				if !used[op.Path] {
					used[op.Path] = true
				}
				sizes[op.Path] += int64(len(op.Data))
			case OpRename:
				if used[op.Path2] {
					t.Fatalf("seed %d op %d: rename reuses name %s", seed, i, op.Path2)
				}
				used[op.Path2] = true
				sizes[op.Path2] = sizes[op.Path]
				delete(sizes, op.Path)
			case OpUnlink:
				if !op.Close {
					t.Fatalf("seed %d op %d: unlink without Close", seed, i)
				}
				delete(sizes, op.Path)
			case OpMkdir:
				if used[op.Path] {
					t.Fatalf("seed %d op %d: mkdir reuses name %s", seed, i, op.Path)
				}
				used[op.Path] = true
			case OpSyncAll:
			default:
				t.Fatalf("seed %d op %d: unexpected kind %v in served workload",
					seed, i, op.Kind)
			}
		}
	}
}

// exploreServed runs a served sweep that must stay violation-free and
// kill the daemon at exactly sample events: RunServed fails a campaign
// whose armed event never fires, so every one of them did.
func exploreServed(t *testing.T, sample int, c ServedCampaign) {
	t.Helper()
	res, err := ServedExplore(ServedExploreConfig{Sample: sample, ServedCampaign: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%v: %s", v.At, v.Msg)
	}
	if res.Tested != sample || res.Runs != sample+1 {
		t.Fatalf("window %v: %d events killed in %d runs, want %d in %d",
			res.Window, res.Tested, res.Runs, sample, sample+1)
	}
}

// TestServedCrashSweep kills the daemon at sampled persistence events in
// every mode and expects every oracle — per-tenant crash-point guarantee,
// exactly-once replay, and post-resume final state — to hold.
func TestServedCrashSweep(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			exploreServed(t, 8, ServedCampaign{Kind: stack.SplitFSKind(mode), Tenants: 2, OpsPerTenant: 10, Seed: 11})
		})
	}
}

// TestServedCrashWireFaults layers mid-frame client-side transport cuts
// on top of the daemon death, so tenants survive torn frames, warm
// re-attach with replay, then the crash, then cold resume (possibly torn
// again) — still violation-free.
func TestServedCrashWireFaults(t *testing.T) {
	exploreServed(t, 6, ServedCampaign{Kind: "splitfs-strict", Tenants: 2, OpsPerTenant: 10,
		Seed: 17, FaultCadence: 2})
}

// midWindow is the crash point halfway through a traced recording run,
// its unfenced lines torn under the first seed.
func midWindow(record *ServedResult) pmem.CrashPoint {
	return pmem.CrashPoint{Ev: record.Trace[len(record.Trace)/2], Way: 1}
}

// TestServedCrashReconnects pins one mid-window daemon death and checks
// the mechanics the sweep relies on: the crash fires, replies are
// dropped at the torn generation, every tenant reconnects and finishes
// on the recovered generation, and the oracles stay green.
func TestServedCrashReconnects(t *testing.T) {
	record, err := RunServed(ServedCampaign{Kind: "splitfs-strict", Tenants: 3,
		OpsPerTenant: 12, Seed: 23, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if record.Violation != "" {
		t.Fatalf("recording run violated: %s", record.Violation)
	}
	event := midWindow(record)
	res, err := RunServed(ServedCampaign{Kind: "splitfs-strict", Tenants: 3,
		OpsPerTenant: 12, Seed: 23, CrashAt: event})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation at %v: %s", event, res.Violation)
	}
	if len(res.AckedSys) != 3 {
		t.Fatalf("acked prefixes for %d tenants, want 3", len(res.AckedSys))
	}
	if res.Gen1.DroppedReplies == 0 {
		t.Error("generation 1 dropped no replies at the crash")
	}
	t.Logf("%v: acked %v, gen1 %+v, gen2 %+v", event, res.AckedSys, res.Gen1, res.Gen2)
}

// TestServedCampaignDeterministic runs one campaign twice — three
// tenants, wire faults, leases, the event trace, a crash mid-window — and
// requires equal results field for field: the schedule comes from the
// seed, so the trace, every tenant's crash prefix, both generations' wire
// counters and the verdict replay exactly. An event past the recorded
// window never fires, and the campaign says so.
func TestServedCampaignDeterministic(t *testing.T) {
	c := ServedCampaign{Kind: "splitfs-strict", Tenants: 3, OpsPerTenant: 12, Seed: 43,
		FaultCadence: 2, Leases: true, Trace: true}
	record, err := RunServed(c)
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAt = midWindow(record)
	var runs [2]*ServedResult
	for i := range runs {
		if runs[i], err = RunServed(c); err != nil {
			t.Fatal(err)
		}
	}
	a, b := reflect.ValueOf(*runs[0]), reflect.ValueOf(*runs[1])
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			t.Errorf("two runs of one campaign differ in %s", a.Type().Field(i).Name)
		}
	}
	res := runs[0]
	if res.Violation != "" {
		t.Fatalf("violation at %v: %s", c.CrashAt, res.Violation)
	}
	if len(res.Trace) == 0 || len(res.AckedSys) != 3 || res.Gen1.TornDisconnects == 0 ||
		res.Gen1.LeaseGrants == 0 || res.Gen2.Reattached+res.Gen2.ReplayedRequests == 0 {
		t.Fatalf("vacuous comparison: %d trace events, prefixes %v, gen1 %+v, gen2 %+v",
			len(res.Trace), res.AckedSys, res.Gen1, res.Gen2)
	}
	c.CrashAt = pmem.CrashPoint{Ev: pmem.Event{Seq: record.TotalEvents + 1}}
	if _, err := RunServed(c); err == nil {
		t.Fatal("an event past the recorded window ran as if it had fired")
	}
}

// TestServedCrashWithLeases runs the daemon-death sweep with the
// zero-copy data plane on for every tenant session: leased-read
// probes keep leases genuinely outstanding across the kill, generation
// 1's teardown must revoke all of them (oracle inside RunServed), and
// every crash/replay/final-state oracle must still hold — the lease
// plane may not weaken any serving guarantee.
func TestServedCrashWithLeases(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			exploreServed(t, 6, ServedCampaign{Kind: stack.SplitFSKind(mode), Tenants: 2, OpsPerTenant: 10,
				Seed: 29, Leases: true})
		})
	}
}

// TestServedLeaseGrantsAcrossGenerations pins the lease mechanics of
// one mid-window daemon death: generation 1 actually granted leases
// (the probes are not vacuous), none survived its teardown, and the
// recovered generation grants fresh ones.
func TestServedLeaseGrantsAcrossGenerations(t *testing.T) {
	record, err := RunServed(ServedCampaign{Kind: "splitfs-strict", Tenants: 2,
		OpsPerTenant: 12, Seed: 31, Leases: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if record.Violation != "" {
		t.Fatalf("recording run violated: %s", record.Violation)
	}
	if record.Gen1.LeaseGrants == 0 {
		t.Fatal("lease campaign granted no leases: the probes are vacuous")
	}
	event := midWindow(record)
	res, err := RunServed(ServedCampaign{Kind: "splitfs-strict", Tenants: 2,
		OpsPerTenant: 12, Seed: 31, Leases: true, CrashAt: event})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation at %v: %s", event, res.Violation)
	}
	if res.Gen1.LeaseGrants == 0 {
		t.Error("generation 1 granted no leases before the kill")
	}
	t.Logf("%v: gen1 grants=%d revokes=%d, gen2 grants=%d revokes=%d",
		event, res.Gen1.LeaseGrants, res.Gen1.LeaseRevokes,
		res.Gen2.LeaseGrants, res.Gen2.LeaseRevokes)
}

// TestServedOracleDetectsViolations proves the served oracles are not
// vacuous: with every workload fence skipped (the pmem fault-injection
// hook), strict-mode daemon deaths must surface guarantee breaches.
func TestServedOracleDetectsViolations(t *testing.T) {
	res, err := ServedExplore(ServedExploreConfig{Sample: 24, ServedCampaign: ServedCampaign{
		Kind: "splitfs-strict", Tenants: 2, OpsPerTenant: 10, Seed: 29,
		SkipFence: func(seq int64) bool { return true }}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("skipped fences produced no violation — the served oracle is vacuous")
	}
	t.Logf("%d violations in %d tested events; first: %s",
		len(res.Violations), res.Tested, res.Violations[0].Msg)
}

// TestServedMinimize shrinks a seeded-fault served campaign to a small
// reproducer and keeps a witness violation.
func TestServedMinimize(t *testing.T) {
	res, err := Minimize(ServedExploreConfig{Sample: 12, ServedCampaign: ServedCampaign{
		Kind: "splitfs-strict", Tenants: 2, OpsPerTenant: 6, Seed: 31,
		SkipFence: func(seq int64) bool { return true }}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ops := range res.Workloads {
		total += len(ops)
	}
	if total > 8 {
		t.Fatalf("minimized to %d total ops across tenants, want <= 8", total)
	}
	if res.Violation.Msg == "" {
		t.Fatal("no witness violation")
	}
	t.Logf("minimized to %d ops in %d runs: %s", total, res.Runs, res.Violation.Msg)
}
