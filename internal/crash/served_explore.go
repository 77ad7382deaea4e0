package crash

import (
	"fmt"
	"strings"

	"splitfs/internal/sim"
)

// ServedExplore is the daemon-death sweep: run the served campaign once
// without a crash to bound its persistence-event window, then kill the
// daemon at a seeded sample of events, recover, restart, and check every
// oracle each time. ServedMinimize shrinks a violating campaign's
// tenant workloads to a minimal reproducer.

// ServedExploreConfig configures a served sweep.
type ServedExploreConfig struct {
	// ServedCampaign is the campaign run at every tested event; the sweep
	// sets its CrashAtEvent. The Seed stays fixed across the sweep so
	// every run drives the same workloads over the same wire-fault
	// cadence — only the armed event varies.
	ServedCampaign
	// Sample bounds how many crash events are tested (0 = all),
	// deterministic in Seed.
	Sample int
	// Include lists events that must be tested even when Sample would not
	// draw them (minimization pins the witness event this way).
	Include []int64
}

// ServedExploreResult summarizes a served sweep.
type ServedExploreResult struct {
	// Window is the crashable event range (post-setup, end-of-recording].
	Window [2]int64
	// Tested counts crash runs; NotFired how many of them never reached
	// their armed event — tenant scheduling is nondeterministic, so a
	// rerun's window can fall short of the recording's. Violations can
	// only come from runs that fired (or from final-state checks).
	Tested, NotFired int
	Violations       []Violation
	Runs             int // total served campaign executions, recording run included
}

// ServedExplore runs the sweep.
func ServedExplore(cfg ServedExploreConfig) (*ServedExploreResult, error) {
	res := &ServedExploreResult{}
	campaign := func(event int64) ServedCampaign {
		c := cfg.ServedCampaign
		c.CrashAtEvent = event
		return c
	}

	// Recording run: no crash; validates the workloads' final states and
	// bounds the sweep window.
	record, err := RunServed(campaign(0))
	if err != nil {
		return nil, err
	}
	res.Runs++
	if record.Violation != "" {
		res.Violations = append(res.Violations, Violation{
			Mode: cfg.Mode, Seed: cfg.Seed, Msg: record.Violation,
			Flight: record.Flight})
	}
	w0, w1 := record.BaselineEvents, record.TotalEvents
	res.Window = [2]int64{w0, w1}

	events := sampleEvents(w0+1, w1, cfg.Sample, sim.NewRNG(mix(cfg.Seed, 0x5eed)))
	for _, k := range cfg.Include {
		if k > w0 && k <= w1 {
			events = insertEvent(events, k)
		}
	}
	for _, k := range events {
		r, err := RunServed(campaign(k))
		if err != nil {
			return nil, err
		}
		res.Runs++
		res.Tested++
		if !r.Fired {
			res.NotFired++
		}
		if r.Violation != "" {
			res.Violations = append(res.Violations, Violation{
				Mode: cfg.Mode, Seed: cfg.Seed, Event: k, Msg: r.Violation,
				Flight: r.Flight})
		}
	}
	return res, nil
}

// ServedMinimizeResult is a shrunken served reproducer.
type ServedMinimizeResult struct {
	TenantOps [][]Op
	Violation Violation // a witness violation of the minimal workloads
	Runs      int       // total served campaign executions spent minimizing
}

// ServedMinimize requires cfg to violate (ServedExplore finds at least
// one breach) and shrinks the tenant workloads while it still does:
// first by emptying whole tenants, then ddmin within each remaining
// tenant's ops. Tenant count and order are preserved (emptied tenants
// keep their slot) so tenant indices in violation messages stay stable.
// Keep cfg.Sample modest — minimization trades per-candidate
// exhaustiveness for many candidates.
func ServedMinimize(cfg ServedExploreConfig) (*ServedMinimizeResult, error) {
	res := &ServedMinimizeResult{}
	test := func(tenantOps [][]Op) (*Violation, error) {
		sub := cfg
		sub.TenantOps = tenantOps
		r, err := ServedExplore(sub)
		if err != nil {
			return nil, err
		}
		res.Runs += r.Runs
		if len(r.Violations) > 0 {
			// Pin the witness event so a sampled re-sweep of the next
			// candidate cannot miss it.
			if ev := r.Violations[0].Event; ev > 0 {
				cfg.Include = insertEvent(cfg.Include, ev)
			}
			return &r.Violations[0], nil
		}
		return nil, nil
	}

	cur := copyTenantOps(cfg.workloads())
	witness, err := test(cur)
	if err != nil {
		return nil, err
	}
	if witness == nil {
		return nil, fmt.Errorf("crash: served campaign does not violate; nothing to minimize")
	}

	// Pass 1: empty whole tenants.
	for i := range cur {
		if len(cur[i]) == 0 {
			continue
		}
		cand := copyTenantOps(cur)
		cand[i] = nil
		v, err := test(cand)
		if err != nil {
			return nil, err
		}
		if v != nil {
			cur, witness = cand, v
		}
	}

	// Pass 2: ddmin within each remaining tenant.
	for i := range cur {
		kept, err := ddmin(cur[i], func(ops []Op) ([]Op, bool, error) {
			cand := copyTenantOps(cur)
			cand[i] = sanitizeServedOps(ops)
			v, err := test(cand)
			if v != nil {
				witness = v
			}
			return cand[i], v != nil, err
		})
		if err != nil {
			return nil, err
		}
		cur[i] = kept
	}
	res.TenantOps = cur
	res.Violation = *witness
	return res, nil
}

// sanitizeServedOps rewrites a ddmin candidate into a well-formed served
// workload. Deleting ops from a workload can orphan later ops — an
// unlink whose create was removed, a file inside a removed mkdir, an
// append whose offset no longer matches the file's size — and the
// runner (rightly) treats those as hard errors, not guarantee
// violations. Dropping the orphans and re-basing append offsets keeps
// every candidate executable while preserving the surviving operations.
// Valid workloads pass through unchanged, so sanitizing is idempotent.
func sanitizeServedOps(ops []Op) []Op {
	dirs := map[string]bool{"": true}
	exists := map[string]bool{}
	sizes := map[string]int64{}
	parentOK := func(p string) bool {
		i := strings.LastIndex(p, "/")
		return i >= 0 && dirs[p[:i]]
	}
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpMkdir:
			if !parentOK(op.Path) {
				continue
			}
			dirs[op.Path] = true
		case OpCreate:
			if !parentOK(op.Path) {
				continue
			}
			exists[op.Path] = true
		case OpWrite:
			if !parentOK(op.Path) {
				continue
			}
			op.Off = sizes[op.Path] // re-base the positional append
			exists[op.Path] = true
			sizes[op.Path] += int64(len(op.Data))
		case OpRename:
			if !exists[op.Path] || !parentOK(op.Path2) {
				continue
			}
			delete(exists, op.Path)
			exists[op.Path2] = true
			sizes[op.Path2] = sizes[op.Path]
			delete(sizes, op.Path)
		case OpUnlink:
			if !exists[op.Path] {
				continue
			}
			delete(exists, op.Path)
			delete(sizes, op.Path)
		}
		out = append(out, op)
	}
	return out
}

func copyTenantOps(t [][]Op) [][]Op {
	out := make([][]Op, len(t))
	for i := range t {
		out[i] = append([]Op(nil), t[i]...)
	}
	return out
}
