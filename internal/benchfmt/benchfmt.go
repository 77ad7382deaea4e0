// Package benchfmt defines the machine-readable benchmark-result format
// shared by cmd/splitbench and the CI perf gate: the results file
// splitbench -json writes (one row per experiment metric per git
// revision) and the BENCH_baseline.json regression baseline (the
// deterministic macro counters a PR must reproduce exactly or explicitly
// update).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Record is one serialized metric row.
type Record struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	GitRev     string  `json:"git_rev"`
}

// Key identifies a row for deduplication: reruns at the same revision
// replace rows with the same key instead of appending stale duplicates.
func (r Record) Key() string {
	return r.Experiment + "\x00" + r.Metric + "\x00" + r.GitRev
}

// Validate checks the schema the CI gate relies on: every field
// non-empty and every value finite. Returns the first violation.
func Validate(recs []Record) error {
	for i, r := range recs {
		switch {
		case r.Experiment == "":
			return fmt.Errorf("benchfmt: record %d: empty experiment", i)
		case r.Metric == "":
			return fmt.Errorf("benchfmt: record %d (%s): empty metric", i, r.Experiment)
		case r.Unit == "":
			return fmt.Errorf("benchfmt: record %d (%s/%s): empty unit", i, r.Experiment, r.Metric)
		case r.GitRev == "":
			return fmt.Errorf("benchfmt: record %d (%s/%s): empty git_rev", i, r.Experiment, r.Metric)
		case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
			return fmt.Errorf("benchfmt: record %d (%s/%s): non-finite value", i, r.Experiment, r.Metric)
		}
	}
	return nil
}

// Load reads and validates a record file.
func Load(path string) ([]Record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if err := Validate(recs); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return recs, nil
}

// Save validates and writes records as indented JSON.
func Save(path string, recs []Record) error {
	if err := Validate(recs); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0644)
}

// Merge appends fresh rows to old, replacing any old row with the same
// (experiment, metric, git_rev) key — the rerun-deduplication rule — and
// keeping row order stable (old rows first, in place; new keys appended
// in fresh order).
func Merge(old, fresh []Record) []Record {
	replace := make(map[string]Record, len(fresh))
	for _, r := range fresh {
		replace[r.Key()] = r
	}
	out := make([]Record, 0, len(old)+len(fresh))
	seen := make(map[string]bool, len(fresh))
	for _, r := range old {
		if nr, ok := replace[r.Key()]; ok {
			if !seen[r.Key()] {
				out = append(out, nr)
				seen[r.Key()] = true
			}
			continue
		}
		out = append(out, r)
	}
	for _, r := range fresh {
		if !seen[r.Key()] {
			out = append(out, r)
			seen[r.Key()] = true
		}
	}
	return out
}

// gatedSuffixes are the deterministic counters the regression baseline
// pins, as suffixes of the macro matrix's "<workload>/<backend>/<name>"
// metric names. Simulated-time metrics (ns_per_op) are deliberately NOT
// gated: retuning the cost model shifts them legitimately, while fences,
// journal commits, log appends, relink/reclaim counts, and PM write
// volume only move when the I/O behavior itself changes.
var gatedSuffixes = []string{
	"/fences_per_op",
	"/journal_commits",
	"/log_appends",
	"/relinks",
	"/staging_reclaimed",
	"/pm_bytes",
	// Zero-copy data plane (server experiment lease cells): how many
	// data bytes moved through leased mappings versus the wire codec is
	// a deterministic property of the op stream, and the baseline
	// pinning read_wire_bytes at ~0 is the "leased reads cross no wire"
	// guarantee itself.
	"/lease_grants",
	"/leased_read_bytes",
	"/leased_write_bytes",
	"/read_wire_bytes",
	"/write_wire_bytes",
}

// GatedExperiments are the experiments the regression baseline pins.
var GatedExperiments = []string{"macro", "server", "obs"}

// Gated reports whether a metric row belongs in the regression baseline:
// the macro matrix's deterministic counters, plus the server
// experiment's loopback and lease cells — the single-session served
// stream is deterministic by the loopback-transport contract (requests
// execute inline), so its counters pin both the backend AND the service
// layer's transparency; the lease cells additionally pin the zero-copy
// data plane's byte routing. Its direct cells stay ungated: the loopback
// cells equal them by test. The obs experiment is gated in full: every row
// is a registry instrument read after a sim-clocked deterministic
// stream, so there is no wall-clock row to exclude — pinning the whole
// snapshot is the observability plane's zero-drift guarantee in CI.
func Gated(r Record) bool {
	if !slices.Contains(GatedExperiments, r.Experiment) {
		return false
	}
	switch r.Experiment {
	case "obs":
		return true
	case "server":
		if !strings.HasPrefix(r.Metric, "loopback/") && !strings.HasPrefix(r.Metric, "lease/") {
			return false
		}
	}
	for _, s := range gatedSuffixes {
		if strings.HasSuffix(r.Metric, s) {
			return true
		}
	}
	return false
}

// GatedSubset filters the rows the baseline pins, in input order.
func GatedSubset(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if Gated(r) {
			out = append(out, r)
		}
	}
	return out
}

// metricKey identifies a row across revisions.
func metricKey(r Record) string { return r.Experiment + "\x00" + r.Metric }

// Repin returns the baseline a run pins — the gated rows of run, in its
// order — with the baseline's own record, git_rev included, kept for every
// row whose value and unit the run reproduced, and how many rows it
// re-pinned (moved, new, or missing from the baseline). A re-pin of one
// counter rewrites that counter's record and no other.
func Repin(baseline, run []Record) ([]Record, int) {
	old := make(map[string]Record, len(baseline))
	for _, r := range baseline {
		old[metricKey(r)] = r
	}
	out, moved := GatedSubset(run), 0
	for i, r := range out {
		if b, ok := old[metricKey(r)]; ok && b.Value == r.Value && b.Unit == r.Unit {
			out[i] = b
		} else {
			moved++
		}
	}
	return out, moved
}

// Drift is one baseline mismatch.
type Drift struct {
	Experiment string
	Metric     string
	Want       float64 // baseline value (NaN if the row is new)
	Got        float64 // current value (NaN if the row disappeared)
}

func (d Drift) String() string {
	// %v keeps full float64 precision: large counters (pm_bytes) can
	// differ past 6 significant digits and must not print identically.
	switch {
	case math.IsNaN(d.Want):
		return fmt.Sprintf("%s %s: new metric %v not in baseline", d.Experiment, d.Metric, d.Got)
	case math.IsNaN(d.Got):
		return fmt.Sprintf("%s %s: baseline row (%v) missing from this run", d.Experiment, d.Metric, d.Want)
	default:
		return fmt.Sprintf("%s %s: baseline %v, got %v", d.Experiment, d.Metric, d.Want, d.Got)
	}
}

// DiffBaseline compares the gated subset of a run against the baseline,
// ignoring git_rev (the baseline was recorded at an older revision by
// construction). The counters are deterministic, so the comparison is
// exact, not statistical: any difference is a drift. Missing and new
// rows are drifts too — a backend or workload silently dropping out of
// the matrix must not pass the gate. ran names the experiments this run
// executed: baseline rows of experiments that did not run are skipped
// (so a job may gate only its own experiment), while within a ran
// experiment a vanished row is still a drift.
func DiffBaseline(baseline, run []Record, ran []string) []Drift {
	inRun := make(map[string]bool, len(ran))
	for _, e := range ran {
		inRun[e] = true
	}
	got := make(map[string]Record)
	for _, r := range GatedSubset(run) {
		got[metricKey(r)] = r
	}
	var drifts []Drift
	seen := make(map[string]bool)
	for _, b := range GatedSubset(baseline) {
		if !inRun[b.Experiment] {
			continue
		}
		seen[metricKey(b)] = true
		g, ok := got[metricKey(b)]
		if !ok {
			drifts = append(drifts, Drift{b.Experiment, b.Metric, b.Value, math.NaN()})
			continue
		}
		if g.Value != b.Value {
			drifts = append(drifts, Drift{b.Experiment, b.Metric, b.Value, g.Value})
		}
	}
	extra := make([]string, 0)
	for k := range got {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		r := got[k]
		drifts = append(drifts, Drift{r.Experiment, r.Metric, math.NaN(), r.Value})
	}
	return drifts
}
