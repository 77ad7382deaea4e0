package crash

import (
	"fmt"
	"slices"

	"splitfs/internal/pmem"
)

// sweep is a sweep configuration of either kind — ExploreConfig or
// ServedExploreConfig — as Minimize sees it.
type sweep interface {
	// workloads is the sweep's op lists, one per tenant (a direct
	// campaign has one).
	workloads() [][]Op
	// explore sweeps workloads w instead of the configured ones, testing
	// the first-crash points include first and on top of its own.
	explore(w [][]Op, include []pmem.CrashPoint) (*ExploreResult, error)
	// sanitize rewrites a ddmin candidate into a workload the sweep can
	// run.
	sanitize(ops []Op) []Op
}

func (c ExploreConfig) workloads() [][]Op { return [][]Op{c.Ops} }

func (c ExploreConfig) explore(w [][]Op, include []pmem.CrashPoint) (*ExploreResult, error) {
	c.Ops, c.Include = w[0], append(slices.Clip(c.Include), include...)
	return Explore(c)
}

func (ExploreConfig) sanitize(ops []Op) []Op { return ops }

func (c ServedExploreConfig) explore(w [][]Op, include []pmem.CrashPoint) (*ExploreResult, error) {
	c.TenantOps, c.Include = w, append(slices.Clip(c.Include), include...)
	return ServedExplore(c)
}

func (ServedExploreConfig) sanitize(ops []Op) []Op { return sanitizeServedOps(ops) }

// MinimizeResult is a shrunken reproducer.
type MinimizeResult struct {
	// Workloads holds one op list per tenant; a direct campaign's one.
	// Tenant count and order are preserved (an emptied tenant keeps its
	// slot), so tenant indices in violation messages stay stable.
	Workloads [][]Op
	Violation Violation // a witness violation of the minimal workloads
	Runs      int       // total campaign executions spent minimizing
}

// Minimize shrinks a violating sweep to a minimal reproducer. It
// requires cfg to violate (its sweep finds at least one breach) and
// shrinks each workload in turn by ddmin to a locally minimal
// subsequence that still does. Every witness point found — event and
// way — is pinned and re-tested first, so a sampled re-sweep of a later
// candidate cannot miss it. The
// configuration's Sample bounds the per-candidate sweep; keep it modest
// (e.g. 32) — minimization trades per-candidate exhaustiveness for many
// candidates.
func Minimize(cfg sweep) (*MinimizeResult, error) {
	res := &MinimizeResult{}
	var include []pmem.CrashPoint
	test := func(w [][]Op) (*Violation, error) {
		r, err := cfg.explore(w, include)
		if err != nil {
			return nil, err
		}
		res.Runs += r.Runs
		if len(r.Violations) == 0 {
			return nil, nil
		}
		v := r.Violations[0]
		if v.At.Ev.Seq > 0 { // the newest witness goes first
			same := func(p pmem.CrashPoint) bool { return p == v.At }
			include = append([]pmem.CrashPoint{v.At}, slices.DeleteFunc(include, same)...)
		}
		return &v, nil
	}

	cur := slices.Clone(cfg.workloads())
	witness, err := test(cur)
	if err != nil {
		return nil, err
	}
	if witness == nil {
		return nil, fmt.Errorf("crash: campaign does not violate; nothing to minimize")
	}
	for i := range cur {
		kept, err := ddmin(cur[i], func(ops []Op) ([]Op, bool, error) {
			cand := slices.Clone(cur)
			cand[i] = cfg.sanitize(ops)
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
	res.Workloads = cur
	res.Violation = *witness
	return res, nil
}

// ddmin returns a locally minimal subsequence of ops: it deletes chunks
// of the list, halving the chunk size when a pass removes nothing, and
// keeps every candidate test accepts. test may rewrite the candidate it
// accepts (a served sweep sanitizes orphaned ops and restores the
// closing barrier); the returned list replaces the current one when it
// is shorter.
func ddmin(cur []Op, test func(cand []Op) (kept []Op, ok bool, err error)) ([]Op, error) {
	for chunk := (len(cur) + 1) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(cur); {
			cand := make([]Op, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			kept, ok, err := test(cand)
			if err != nil {
				return nil, err
			}
			if ok && len(kept) < len(cur) {
				// Re-scan from the same position on the shrunken list.
				cur, removed = kept, true
				continue
			}
			start += chunk
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(cur) {
			chunk = len(cur)
		}
	}
	return cur, nil
}
