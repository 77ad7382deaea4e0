package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Verdicts, in the order judge tries them.
const (
	verdictMissing    = "missing"     // a side reported the metric in no run
	verdictIdentical  = "identical"   // simulated: equal at every seed
	verdictSim        = "sim-differs" // simulated: some seed differs
	verdictGain       = "gain"        // the claim rule below holds
	verdictWorse      = "worse"       // the change's median is past the bound
	verdictUnresolved = "unresolved"  // the parent's own spread is wider than the bound
	verdictSame       = "same"        // within the bound
)

// row is one line of the table: one metric of one workload or benchmark.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Parent   []float64 `json:"parent"` // per pair, in pair order, missing ones left out
	Change   []float64 `json:"change"`
	P        quartiles `json:"parent_quartiles"`
	C        quartiles `json:"change_quartiles"`
	Delta    float64   `json:"delta"` // (change − parent) / |parent| of the medians; 0 when the parent's is 0
	Won      int       `json:"won"`   // pairs the change won; ties count for neither side
	Pairs    int       `json:"pairs"` // pairs where both sides reported the metric
	Inside   bool      `json:"inside_parent_iqr"`
	Verdict  string    `json:"verdict"`
}

// quartiles is the median and the first and third quartiles of a sample.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// judge builds a row from the parent's and the change's value at each
// pair (NaN where a run did not report it). With exact set, the metric
// is a function of the seed: the verdict is whether the sides agree at
// every seed. Otherwise, choosing-metrics §8 and §6.5:
//
//   - gain: the change wins at least nine tenths of the pairs, and its
//     median is better than the parent's by more than the parent's IQR;
//   - worse: its median is worse than the parent's by more than the
//     bound (relative);
//   - unresolved: the parent's IQR is wider than the bound (relative to
//     its median), and not every run of the change beats every run of
//     the parent;
//   - same: otherwise.
func judge(workload string, m metricSpec, parent, change []float64, exact bool) row {
	r := row{Workload: workload, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	sign := 1.0 // positive: the change is better
	if m.Better != "higher" {
		sign = -1
	}
	equal := true
	for i := range min(len(parent), len(change)) {
		p, c := parent[i], change[i]
		if math.IsNaN(p) || math.IsNaN(c) {
			continue
		}
		r.Pairs++
		equal = equal && p == c
		if sign*(c-p) > 0 {
			r.Won++
		}
	}
	r.Parent, r.Change = present(parent), present(change)
	r.P, r.C = quartilesOf(r.Parent), quartilesOf(r.Change)
	if len(r.Parent) == 0 || len(r.Change) == 0 {
		r.Verdict = verdictMissing
		return r
	}
	if r.P.Median != 0 {
		r.Delta = (r.C.Median - r.P.Median) / math.Abs(r.P.Median)
	}
	r.Inside = r.P.Q1 <= r.C.Median && r.C.Median <= r.P.Q3
	iqr := r.P.Q3 - r.P.Q1
	gain := sign * (r.C.Median - r.P.Median)
	switch {
	case exact && equal:
		r.Verdict = verdictIdentical
	case exact:
		r.Verdict = verdictSim
	case 10*r.Won >= 9*r.Pairs && gain > iqr:
		r.Verdict = verdictGain
	case -gain > m.Bound*math.Abs(r.P.Median):
		r.Verdict = verdictWorse
	case iqr > m.Bound*math.Abs(r.P.Median) && !dominates(r.Change, r.Parent, sign):
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictSame
	}
	return r
}

// dominates reports whether every value of change beats every value of
// parent in the direction sign.
func dominates(change, parent []float64, sign float64) bool {
	if sign > 0 {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}

// present is v without its NaNs.
func present(v []float64) []float64 {
	out := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// quartilesOf interpolates linearly between order statistics (the
// "type 7" rule of R and NumPy); all zero for no values.
func quartilesOf(v []float64) quartiles {
	if len(v) == 0 {
		return quartiles{}
	}
	s := slices.Sorted(slices.Values(v))
	at := func(q float64) float64 {
		h := q * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return quartiles{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// printTable writes the rows as one table, columns aligned.
func printTable(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tbetter\tinside\tverdict")
	for _, r := range rows {
		inside := "no"
		if r.Inside {
			inside = "yes"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%d/%d\t%s\t%s\n", r.Workload, strings.TrimSpace(r.Metric+" "+r.Unit),
			r.P, r.C, 100*r.Delta, r.Won, r.Pairs, inside, r.Verdict)
	}
	tw.Flush()
}

func (q quartiles) String() string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	return g(q.Median) + " [" + g(q.Q1) + ", " + g(q.Q3) + "]"
}
