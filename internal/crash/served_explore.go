package crash

import (
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

// ServedExplore is the daemon-death sweep: run the campaign once without
// a crash to bound its event window, then kill the daemon at the events
// Explore's sampling draws from it, checking every oracle each time. It
// fills the result's Window, TotalEvents, Tested, Runs and Violations.
func ServedExplore(cfg ServedExploreConfig) (*ExploreResult, error) {
	res := &ExploreResult{}
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
	res.TotalEvents = record.TotalEvents - record.BaselineEvents
	for _, k := range crashPoints(res.Window, cfg.Sample, cfg.Include, sim.NewRNG(mix(cfg.Seed, 0x5eed))) {
		if _, err := run(k); err != nil {
			return nil, err
		}
		res.Tested++
	}
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
