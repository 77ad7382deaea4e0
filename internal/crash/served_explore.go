package crash

import (
	"strings"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// ServedExploreConfig configures a served sweep.
type ServedExploreConfig struct {
	// ServedCampaign is the campaign run at every tested point; the sweep
	// sets only its CrashAt, and Trace on its recording run, so every run
	// drives the same workloads on the same schedule.
	ServedCampaign
	// Sample and Include choose the crash points as in ExploreConfig.
	Sample  int
	Include []pmem.CrashPoint
}

// ServedExplore is the daemon-death sweep: run the campaign once without
// a crash, traced, to bound its event window, then kill the daemon at the
// crash points Explore's sampling draws from it, checking every oracle
// each time. It fills the result's Window, TotalEvents, TotalPoints,
// Tested, TestedByWay, Runs and Violations.
func ServedExplore(cfg ServedExploreConfig) (*ExploreResult, error) {
	res := &ExploreResult{TestedByWay: map[string]int64{}}
	run := func(at pmem.CrashPoint) (*ServedResult, error) {
		c := cfg.ServedCampaign
		c.CrashAt, c.Trace = at, c.Trace || at.Ev.Seq == 0
		r, err := RunServed(c)
		if err != nil {
			return nil, err
		}
		res.Runs++
		if r.Violation != "" {
			res.Violations = append(res.Violations, Violation{
				Kind: c.Kind, Seed: c.Seed, At: at, Msg: r.Violation, Flight: r.Flight})
		}
		return r, nil
	}
	record, err := run(pmem.CrashPoint{})
	if err != nil {
		return nil, err
	}
	res.Window = [2]int64{record.BaselineEvents, record.TotalEvents}
	res.TotalEvents = record.TotalEvents - record.BaselineEvents
	all, picked := crashPoints(record.Trace, cfg.Sample, cfg.Include, sim.NewRNG(mix(cfg.Seed, 0x5eed)))
	res.TotalPoints = int64(len(all))
	for _, p := range picked {
		if _, err := run(p); err != nil {
			return nil, err
		}
		res.Tested++
		res.TestedByWay[p.Way.String()]++
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
	// would "violate" by its kind's own rules.
	if len(out) > 0 && out[len(out)-1].Kind != OpSyncAll {
		out = append(out, Op{Kind: OpSyncAll})
	}
	return out
}
