package crash

import (
	"sort"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
)

// Explore is the persistence-event sweep: record the workload once to
// number its events, then crash at every (or a seeded sample of) event,
// recover, and check the mode's guarantee. With DoubleCrash it also
// crashes again inside each recovery.

// ExploreConfig configures a sweep.
type ExploreConfig struct {
	Mode splitfs.Mode
	Ops  []Op
	Seed uint64
	// Sample bounds how many first-crash events are tested (0 = all).
	// Sampling is deterministic in Seed.
	Sample int
	// DoubleCrash adds, for every tested event, second crashes inside the
	// recovery from that crash.
	DoubleCrash bool
	// DoubleSample bounds the second-crash events tested per recovery
	// (0 = 3).
	DoubleSample int
	// SkipFence, when set, is installed as the fence fault-injection hook
	// of every campaign in the sweep (see Campaign.SkipFence).
	SkipFence func(seq int64) bool
	// Include lists first-crash events that must be tested even when
	// Sample would not draw them (events outside the workload's window
	// are ignored). Minimization seeds this with the witness violation's
	// event so a sampled re-sweep cannot miss it.
	Include []int64
}

// Violation is one guarantee breach found by a sweep.
type Violation struct {
	Mode        splitfs.Mode
	Seed        uint64
	Event       int64 // first-crash persistence event (0 = boundary run)
	DoubleEvent int64 // second-crash event, when the breach needed one
	Msg         string
	// Flight carries the served stack's flight-recorder traces for the
	// generation that breached (served sweeps only; empty otherwise).
	Flight string
}

// ExploreResult summarizes a sweep.
type ExploreResult struct {
	// Window is the crashable event range (post-setup, end-of-workload].
	Window [2]int64
	// TotalEvents counts the events in the window; Tested how many were
	// crashed at; DoubleTested counts second-crash runs.
	TotalEvents  int64
	Tested       int
	DoubleTested int
	// ByKind/TestedByKind break the window's events and the tested events
	// down by coverage label — kind (store/storent/flush/fence), suffixed
	// with the event source for events issued by fsync's relink and
	// reclaim stages (e.g. "storent@relink", "fence@reclaim").
	ByKind       map[string]int64
	TestedByKind map[string]int64
	// UnknownKinds lists coverage labels built from event kinds or
	// sources this build does not know (a newer pmem added one without
	// updating the coverage tables). Consumers must surface these loudly
	// — silently bucketing an unknown kind would mean sweeping events
	// whose semantics nobody checked.
	UnknownKinds []string
	Violations   []Violation
	Runs         int // total campaign executions, recording run included
	// MetaReplayed / MetaSkipped sum, over the first recoveries of the
	// tested events, the metadata operations redone from the op log and
	// the records found already committed; DoubleInMetaReplay counts the
	// second crashes that cut such a replay short (Result).
	MetaReplayed, MetaSkipped int
	DoubleInMetaReplay        int
}

// kindLabel is the coverage-bucket name of one traced event.
func kindLabel(ev pmem.Event) string {
	s := ev.Kind.String()
	if ev.Src != pmem.SrcForeground {
		s += "@" + ev.Src.String()
	}
	return s
}

// Explore runs the sweep.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	res := &ExploreResult{ByKind: map[string]int64{}, TestedByKind: map[string]int64{}}

	// Recording run: no intra-op crash (boundary crash after everything,
	// which also validates the workload end state), full event trace.
	model := buildModel(cfg.Mode, compile(cfg.Ops))
	record, err := Run(Campaign{Mode: cfg.Mode, Ops: cfg.Ops, CrashAfter: len(cfg.Ops),
		Seed: cfg.Seed, Trace: true, SkipFence: cfg.SkipFence, model: model})
	if err != nil {
		return nil, err
	}
	res.Runs++
	if record.Violation != "" {
		res.Violations = append(res.Violations, Violation{
			Mode: cfg.Mode, Seed: cfg.Seed, Msg: record.Violation})
	}
	w0 := record.SysEvents[0]
	w1 := record.SysEvents[len(record.SysEvents)-1]
	res.Window = [2]int64{w0, w1}
	res.TotalEvents = w1 - w0
	kindOf := map[int64]string{}
	unknown := map[string]bool{}
	for _, ev := range record.Trace {
		if ev.Seq > w0 && ev.Seq <= w1 {
			label := kindLabel(ev)
			res.ByKind[label]++
			kindOf[ev.Seq] = label
			if !ev.Kind.Known() || !ev.Src.Known() {
				unknown[label] = true
			}
		}
	}
	for label := range unknown {
		res.UnknownKinds = append(res.UnknownKinds, label)
	}
	sort.Strings(res.UnknownKinds)

	dblSample := cfg.DoubleSample
	if dblSample <= 0 {
		dblSample = 3
	}
	for _, k := range crashPoints(res.Window, cfg.Sample, cfg.Include, sim.NewRNG(mix(cfg.Seed, 0x5a))) {
		c := Campaign{Mode: cfg.Mode, Ops: cfg.Ops, Seed: mix(cfg.Seed, uint64(k)),
			CrashAtEvent: k, SkipFence: cfg.SkipFence, model: model}
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		res.Runs++
		res.Tested++
		res.TestedByKind[kindOf[k]]++
		res.MetaReplayed += r.MetaReplayed
		res.MetaSkipped += r.MetaSkipped
		if r.Violation != "" {
			res.Violations = append(res.Violations, Violation{
				Mode: cfg.Mode, Seed: cfg.Seed, Event: k, Msg: r.Violation})
			continue
		}
		if !cfg.DoubleCrash {
			continue
		}
		// Sweep second crashes inside this recovery's event window.
		rng := sim.NewRNG(mix(cfg.Seed, uint64(k)^0xDD))
		for _, k2 := range sampleEvents(r.RecoveryStart+1, r.RecoveryEnd, dblSample, rng) {
			c.DoubleCrashEvent = k2
			r2, err := Run(c)
			if err != nil {
				return nil, err
			}
			res.Runs++
			res.DoubleTested++
			if r2.DoubleInMetaReplay {
				res.DoubleInMetaReplay++
			}
			if r2.Violation != "" {
				res.Violations = append(res.Violations, Violation{
					Mode: cfg.Mode, Seed: cfg.Seed, Event: k, DoubleEvent: k2, Msg: r2.Violation})
			}
		}
	}
	return res, nil
}

// crashPoints is a sweep's first-crash events, in order: a sample of
// the window (w0, w1] drawn from rng (every event when sample <= 0), plus
// each include event inside it.
func crashPoints(window [2]int64, sample int, include []int64, rng *sim.RNG) []int64 {
	w0, w1 := window[0], window[1]
	events := sampleEvents(w0+1, w1, sample, rng)
	for _, k := range include {
		if k > w0 && k <= w1 {
			events = insertEvent(events, k)
		}
	}
	return events
}

// sampleEvents returns up to max events from [lo, hi], all of them when
// max <= 0 or the range is small enough, otherwise a deterministic
// random sample (always including hi, the fully-quiesced end point).
func sampleEvents(lo, hi int64, max int, rng *sim.RNG) []int64 {
	n := hi - lo + 1
	if n <= 0 {
		return nil
	}
	if max <= 0 || int64(max) >= n {
		out := make([]int64, 0, n)
		for k := lo; k <= hi; k++ {
			out = append(out, k)
		}
		return out
	}
	picked := map[int64]bool{hi: true}
	for len(picked) < max {
		picked[lo+rng.Int63n(n)] = true
	}
	out := make([]int64, 0, len(picked))
	for k := range picked {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// insertEvent inserts k into the sorted event list if absent.
func insertEvent(events []int64, k int64) []int64 {
	i := sort.Search(len(events), func(i int) bool { return events[i] >= k })
	if i < len(events) && events[i] == k {
		return events
	}
	events = append(events, 0)
	copy(events[i+1:], events[i:])
	events[i] = k
	return events
}
