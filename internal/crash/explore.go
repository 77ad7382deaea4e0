package crash

import (
	"maps"
	"slices"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
)

// Explore is the persistence-event sweep: record the workload once to
// trace its events, then crash at every (or a seeded sample of) crash
// point of them — each event taken four ways, pmem.CrashPoints — recover,
// and check the kind's guarantee. With DoubleCrash it also crashes again
// inside each recovery, at crash points of that recovery's trace picked
// the same way. The workload runs once a first point: every recovery of
// its crash image starts from a copy of it.

// ExploreConfig configures a sweep.
type ExploreConfig struct {
	Kind string // the stack kind swept (Campaign.Kind)
	Ops  []Op
	Seed uint64
	// Sample bounds how many first-crash points are tested (0 = all): a
	// budget of crashed runs, spent one point an event — each drawn
	// event's way drawn too — so a sampled sweep crashes as many runs as
	// a sweep of events did. Sampling is deterministic in Seed.
	Sample int
	// DoubleCrash adds, for every tested point, second crashes inside the
	// recovery from that crash.
	DoubleCrash bool
	// DoubleSample is Sample for the second crashes: how many crash
	// points of each recovery's trace are crashed at (0 = all).
	DoubleSample int
	// SkipFence, when set, is installed as the fence fault-injection hook
	// of every campaign in the sweep (see Campaign.SkipFence).
	SkipFence func(seq int64) bool
	// Include lists first-crash points, by event number and way, that
	// are tested first and even when Sample would not draw them (points
	// the workload's window does not have are ignored). Minimization
	// seeds this with the witness violation's point so a sampled
	// re-sweep cannot miss it.
	Include []pmem.CrashPoint
}

// Violation is one guarantee breach found by a sweep.
type Violation struct {
	Kind   string
	Seed   uint64
	At     pmem.CrashPoint // first crash (zero = boundary run)
	Second pmem.CrashPoint // second crash, when the breach needed one
	Msg    string
	// Flight carries the served stack's flight-recorder traces for the
	// generation that breached (served sweeps only; empty otherwise).
	Flight string
}

// ExploreResult summarizes a sweep.
type ExploreResult struct {
	// Window is the crashable event range (post-setup, end-of-workload].
	Window [2]int64
	// TotalEvents counts the events in the window and TotalPoints their
	// crash points; Tested how many points were crashed at; DoubleTested
	// counts second-crash runs by way.
	TotalEvents, TotalPoints int64
	Tested                   int
	DoubleTested             map[string]int64
	// ByKind/TestedByKind break the window's crash points and the tested
	// ones down by coverage label — event kind (store/storent/flush/fence),
	// suffixed with the event source for events issued by fsync's relink
	// and reclaim stages (e.g. "storent@relink", "fence@reclaim");
	// TestedByWay breaks the tested points down by way.
	ByKind       map[string]int64
	TestedByKind map[string]int64
	TestedByWay  map[string]int64
	// UnknownKinds lists coverage labels built from event kinds or
	// sources this build does not know (a newer pmem added one without
	// updating the coverage tables). Consumers must surface these loudly
	// — silently bucketing an unknown kind would mean sweeping events
	// whose semantics nobody checked.
	UnknownKinds []string
	Violations   []Violation
	Runs         int // one per crash tested (a second crash is one), recording run included
	// MetaReplayed / MetaSkipped sum, over the first recoveries of the
	// tested points, the metadata operations redone from the op log and
	// the records found already committed; DoubleInMetaReplay counts the
	// second crashes that cut such a replay short (Result).
	MetaReplayed, MetaSkipped int
	DoubleInMetaReplay        int
	// Rewinds sums, over the tested points, the op-log rewinds made before
	// the crash (Result.Rewinds).
	Rewinds int
}

// kindLabel is the coverage-bucket name of one traced event.
func kindLabel(ev pmem.Event) string {
	s := ev.Kind.String()
	if ev.Src != pmem.SrcForeground {
		s += "@" + ev.Src.String()
	}
	return s
}

// labelPoints counts points by coverage label, and lists the labels built
// from event kinds or sources this build does not know.
func labelPoints(points []pmem.CrashPoint) (byKind map[string]int64, unknown []string) {
	byKind, seen := map[string]int64{}, map[string]bool{}
	for _, p := range points {
		label := kindLabel(p.Ev)
		byKind[label]++
		if !p.Ev.Kind.Known() || !p.Ev.Src.Known() {
			seen[label] = true
		}
	}
	return byKind, slices.Sorted(maps.Keys(seen))
}

// Explore runs the sweep.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	res := &ExploreResult{TestedByKind: map[string]int64{}, TestedByWay: map[string]int64{}, DoubleTested: map[string]int64{}}

	// Recording run: no intra-op crash (boundary crash after everything,
	// which also validates the workload end state), full event trace.
	model := buildModel(stack.GuaranteeOf(cfg.Kind), compile(cfg.Ops))
	record, err := Run(Campaign{Kind: cfg.Kind, Ops: cfg.Ops, CrashAfter: len(cfg.Ops),
		Seed: cfg.Seed, Trace: true, SkipFence: cfg.SkipFence, model: model})
	if err != nil {
		return nil, err
	}
	res.Runs++
	if record.Violation != "" {
		res.Violations = append(res.Violations, Violation{
			Kind: cfg.Kind, Seed: cfg.Seed, Msg: record.Violation})
	}
	w0 := record.SysEvents[0]
	w1 := record.SysEvents[len(record.SysEvents)-1]
	res.Window = [2]int64{w0, w1}
	res.TotalEvents = w1 - w0
	all, picked := crashPoints(record.Trace, cfg.Sample, cfg.Include, sim.NewRNG(mix(cfg.Seed, 0x5a)))
	res.TotalPoints = int64(len(all))
	res.ByKind, res.UnknownKinds = labelPoints(all)

	for _, p := range picked {
		k := p.Ev.Seq
		img, r, err := crashed(Campaign{Kind: cfg.Kind, Ops: cfg.Ops, Seed: mix(cfg.Seed, uint64(k)),
			CrashAt: p, SkipFence: cfg.SkipFence, model: model})
		if err != nil {
			return nil, err
		}
		// A double-crash sweep recovers a copy of the image for every crash
		// it tests, and takes its second points from the first's trace.
		first := img
		if cfg.DoubleCrash {
			first = img.copy()
		}
		recovery := first.recover(r, pmem.CrashPoint{}, cfg.DoubleCrash)
		res.Runs++
		res.Tested++
		res.TestedByKind[kindLabel(p.Ev)]++
		res.TestedByWay[p.Way.String()]++
		res.MetaReplayed += r.MetaReplayed
		res.Rewinds += r.Rewinds
		res.MetaSkipped += r.MetaSkipped
		if r.Violation != "" {
			res.Violations = append(res.Violations, Violation{
				Kind: cfg.Kind, Seed: cfg.Seed, At: p, Msg: r.Violation})
			continue
		}
		if !cfg.DoubleCrash {
			continue
		}
		// Crash again at points of this recovery's trace.
		_, seconds := crashPoints(recovery, cfg.DoubleSample, nil, sim.NewRNG(mix(cfg.Seed, uint64(k)^0xDD)))
		for _, p2 := range seconds {
			r2 := &Result{}
			img.copy().recover(r2, p2, false)
			res.Runs++
			res.DoubleTested[p2.Way.String()]++
			if r2.DoubleInMetaReplay {
				res.DoubleInMetaReplay++
			}
			if r2.Violation != "" {
				res.Violations = append(res.Violations, Violation{
					Kind: cfg.Kind, Seed: cfg.Seed, At: p, Second: p2, Msg: r2.Violation})
			}
		}
	}
	return res, nil
}

// tears is how many seeded tears a sweep takes of each event, beside
// reverting its unfenced lines and, for a non-temporal store, landing it:
// the four ways.
const tears = 2

// crashPoints enumerates the crash points of a recorded window, all, and
// picks the ones a sweep crashes at: each include point the window has
// (matched by event number and way), in include order, then, in order,
// every point when sample <= 0, or else one point, its way drawn from
// rng, of each of up to sample events drawn from rng (every event when
// the window has no more; its last, fully quiesced, always).
func crashPoints(window []pmem.Event, sample int, include []pmem.CrashPoint, rng *sim.RNG) (all, picked []pmem.CrashPoint) {
	first := make([]int, 0, len(window)+1) // all[first[i]:first[i+1]] are window[i]'s points
	for p := range pmem.CrashPoints(window, tears) {
		if p.Way == pmem.Revert {
			first = append(first, len(all))
		}
		all = append(all, p)
	}
	first = append(first, len(all))
	pinned := map[int]bool{}
	pick := func(i int) {
		if !pinned[i] {
			pinned[i] = true
			picked = append(picked, all[i])
		}
	}
	for _, p := range include {
		if i := slices.IndexFunc(all, func(q pmem.CrashPoint) bool { return q.Ev.Seq == p.Ev.Seq && q.Way == p.Way }); i >= 0 {
			pick(i)
		}
	}
	if sample <= 0 {
		for i := range all {
			pick(i)
		}
		return all, picked
	}
	for _, e := range sampleEvents(len(window), sample, rng) {
		pick(first[e] + rng.Intn(first[e+1]-first[e]))
	}
	return all, picked
}

// sampleEvents returns up to max indices of a window of n events, all of
// them when n is no more than max, otherwise a deterministic random
// sample (always including n-1, the fully-quiesced end point).
func sampleEvents(n, max int, rng *sim.RNG) []int {
	if max >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	picked := map[int]bool{n - 1: true}
	for len(picked) < max {
		picked[int(rng.Int63n(int64(n)))] = true
	}
	return slices.Sorted(maps.Keys(picked))
}
