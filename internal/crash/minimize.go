package crash

import (
	"fmt"
)

// Minimize shrinks a violating campaign to a minimal reproducer before
// reporting: it repeatedly deletes chunks of the workload (ddmin-style,
// halving the chunk size) and keeps any candidate that still violates
// under a (sampled) persistence-event sweep.

// MinimizeResult is a shrunken reproducer.
type MinimizeResult struct {
	Ops       []Op
	Violation Violation // a witness violation of the minimal workload
	Runs      int       // total campaign executions spent minimizing
}

// Minimize requires cfg to violate (Explore finds at least one breach)
// and returns a locally minimal subsequence of cfg.Ops that still does.
// cfg.Sample bounds the per-candidate sweep; keep it modest (e.g. 32) —
// minimization trades per-candidate exhaustiveness for many candidates.
func Minimize(cfg ExploreConfig) (*MinimizeResult, error) {
	res := &MinimizeResult{}
	test := func(ops []Op) (*Violation, error) {
		sub := cfg
		sub.Ops = ops
		r, err := Explore(sub)
		if err != nil {
			return nil, err
		}
		res.Runs += r.Runs
		if len(r.Violations) > 0 {
			return &r.Violations[0], nil
		}
		return nil, nil
	}

	cur := append([]Op(nil), cfg.Ops...)
	witness, err := test(cur)
	if err != nil {
		return nil, err
	}
	if witness == nil {
		return nil, fmt.Errorf("crash: campaign does not violate; nothing to minimize")
	}

	cur, err = ddmin(cur, func(cand []Op) ([]Op, bool, error) {
		if len(cand) == 0 {
			return nil, false, nil
		}
		v, err := test(cand)
		if v != nil {
			witness = v
		}
		return cand, v != nil, err
	})
	if err != nil {
		return nil, err
	}
	res.Ops = cur
	res.Violation = *witness
	return res, nil
}

// ddmin returns a locally minimal subsequence of ops: it deletes chunks
// of the list, halving the chunk size when a pass removes nothing, and
// keeps every candidate test accepts. test may rewrite the candidate it
// accepts (the served minimizer sanitizes orphaned ops); the returned
// list replaces the current one.
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
			if ok {
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
