package crash

import (
	"fmt"
	"strings"

	"splitfs/internal/sim"
)

// ServedExploreConfig configures a served sweep.
type ServedExploreConfig struct {
	// ServedCampaign is the campaign run at every tested event; the sweep
	// sets only its CrashAtEvent, so every run drives the same workloads
	// on the same schedule.
	ServedCampaign
	// Sample and Include choose the crash events as in ExploreConfig.
	Sample  int
	Include []int64
}

// ServedExploreResult summarizes a served sweep.
type ServedExploreResult struct {
	Window     [2]int64 // the crashable event range (post-setup, end-of-recording]
	Tested     int      // crash runs: every one of them fired
	Violations []Violation
	Runs       int // total served campaign executions, recording run included
}

// ServedExplore is the daemon-death sweep: run the campaign once without
// a crash to bound its event window, then kill the daemon at the events
// Explore's sampling draws from it, checking every oracle each time.
func ServedExplore(cfg ServedExploreConfig) (*ServedExploreResult, error) {
	res := &ServedExploreResult{}
	run := func(event int64) (*ServedResult, error) {
		c := cfg.ServedCampaign
		c.CrashAtEvent = event
		r, err := RunServed(c)
		if err != nil {
			return nil, err
		}
		res.Runs++
		if r.Violation != "" {
			res.Violations = append(res.Violations, Violation{
				Mode: c.Mode, Seed: c.Seed, Event: event, Msg: r.Violation, Flight: r.Flight})
		}
		return r, nil
	}
	record, err := run(0)
	if err != nil {
		return nil, err
	}
	res.Window = [2]int64{record.BaselineEvents, record.TotalEvents}
	for _, k := range crashPoints(res.Window, cfg.Sample, cfg.Include, sim.NewRNG(mix(cfg.Seed, 0x5eed))) {
		if _, err := run(k); err != nil {
			return nil, err
		}
		res.Tested++
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
// one breach) and shrinks each tenant's workload by ddmin while it still
// does. Tenant count and order are preserved (an emptied tenant keeps
// its slot), so tenant indices in violation messages stay stable. Keep
// cfg.Sample modest — minimization trades per-candidate exhaustiveness
// for many candidates.
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
// workload. Deleting ops can orphan later ones — an unlink whose create
// was removed, a file inside a removed mkdir, an append whose offset no
// longer matches the file's size — which the runner rightly treats as
// hard errors; the orphans are dropped and append offsets re-based.
// Valid workloads pass through unchanged.
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
	// The closing barrier is what makes every operation durable for the
	// final-state oracle: without it the crash may take back unsynced
	// POSIX work the client has no log left to replay, and the candidate
	// would "violate" by the mode's own rules.
	if len(out) > 0 && out[len(out)-1].Kind != OpSyncAll {
		out = append(out, Op{Kind: OpSyncAll})
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
