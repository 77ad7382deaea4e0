// Command splitbench regenerates the SplitFS paper's evaluation tables
// and figures on the simulated PM substrate.
//
// Usage:
//
//	splitbench                  # run every experiment
//	splitbench list             # list experiment IDs
//	splitbench table1 fig4 ...  # run selected experiments
//	splitbench fidelity         # the paper's numbers against ours; fails outside a band
//	splitbench ledger           # each cell's ns/op by cost row and layer; fails if rows do not sum
//	splitbench -json b.json ... # also write the metrics as JSON records
//
//	splitbench -check-baseline macro server obs   # CI perf gate
//	splitbench -update-baseline                   # refresh BENCH_baseline.json
//
// Every experiment's machine-readable metrics are additionally
// serialized to the file -json names, if any, as records of
// {experiment, metric, value, unit, git_rev}. Reruns
// at the same revision replace their previous rows in that file.
//
// The macro matrix's deterministic counters (fences/op, journal commits,
// log appends, relink/reclaim counts, PM bytes) — the server
// experiment's loopback cells, which pin the file service's
// transparency — and the obs experiment's registry snapshots, which pin
// the observability plane's zero-drift guarantee — are additionally
// held by BENCH_baseline.json:
// -check-baseline recomputes them and fails on any drift;
// -update-baseline rewrites the baseline after an intentional change
// (the documented escape hatch the CI bench job points at); a row whose
// value did not move keeps its record and revision. Baseline
// runs with no experiment named run both gated experiments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"

	"splitfs/internal/benchfmt"
	"splitfs/internal/harness"
)

// gitRev resolves the working tree's revision, falling back to CI's
// GITHUB_SHA and then "unknown" (the JSON stays well-formed either way).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	return "unknown"
}

// writeResults merges the run's metrics into the results file, replacing
// rows a rerun at the same revision already produced. An unreadable or
// corrupt existing file is started fresh.
func writeResults(path string, recs []benchfmt.Record) error {
	old, err := benchfmt.Load(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "splitbench: %s unreadable (%v); starting fresh\n", path, err)
		old = nil
	}
	return benchfmt.Save(path, benchfmt.Merge(old, recs))
}

func main() {
	jsonPath := flag.String("json", "",
		"also write machine-readable metrics here (empty: none)")
	baselinePath := flag.String("baseline", "BENCH_baseline.json",
		"regression baseline for the macro matrix's deterministic counters")
	checkBaseline := flag.Bool("check-baseline", false,
		"diff the macro matrix's deterministic counters against -baseline and fail on drift")
	updateBaseline := flag.Bool("update-baseline", false,
		"rewrite -baseline from this run's macro counters (escape hatch after an intentional change)")
	flag.Parse()
	args := flag.Args()
	// flag.Parse stops at the first positional argument; a flag placed
	// after an experiment ID would otherwise be silently treated as one.
	for _, a := range args {
		if len(a) > 0 && a[0] == '-' {
			fmt.Fprintf(os.Stderr, "splitbench: flags must precede experiment IDs (got %q after positional arguments)\n", a)
			os.Exit(2)
		}
	}
	if len(args) == 1 && args[0] == "list" {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if len(args) == 0 && (*checkBaseline || *updateBaseline) {
		// Gate runs that name no experiment mean "run everything the
		// baseline pins".
		args = benchfmt.GatedExperiments
	}
	var exps []harness.Experiment
	if len(args) == 0 {
		exps = harness.All()
	} else {
		for _, id := range args {
			e, ok := harness.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "splitbench: unknown experiment %q (try 'splitbench list')\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	failed := false
	rev := gitRev()
	var recs []benchfmt.Record
	// The baseline can be *checked* per gated experiment (a CI job may
	// gate only the experiment it ran), but *rewritten* only from a run
	// covering everything it pins — a partial update would silently drop
	// the other experiments' rows.
	var ranGated []string
	for _, e := range exps {
		tbl, err := e.Run()
		if tbl != nil {
			// A failed gate (fidelity) still shows and records its rows.
			tbl.Render(os.Stdout)
			for _, m := range tbl.Metrics {
				recs = append(recs, benchfmt.Record{
					Experiment: e.ID, Metric: m.Name, Value: m.Value, Unit: m.Unit, GitRev: rev,
				})
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		if slices.Contains(benchfmt.GatedExperiments, e.ID) && !slices.Contains(ranGated, e.ID) {
			ranGated = append(ranGated, e.ID)
		}
	}
	if *jsonPath != "" && len(recs) > 0 {
		if err := writeResults(*jsonPath, recs); err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: write %s: %v\n", *jsonPath, err)
			failed = true
		} else {
			fmt.Printf("wrote %d metrics to %s (rev %s)\n", len(recs), *jsonPath, rev)
		}
	}
	allGated := len(ranGated) == len(benchfmt.GatedExperiments)
	names := benchfmt.GatedExperiments
	list := func(conj string) string {
		return strings.Join(names[:len(names)-1], ", ") + ", " + conj + " " + names[len(names)-1]
	}
	if *checkBaseline && len(ranGated) == 0 {
		fmt.Fprintf(os.Stderr, "splitbench: -check-baseline needs a gated experiment (%s) in the run\n", list("or"))
		failed = true
	}
	if *updateBaseline && !allGated {
		fmt.Fprintf(os.Stderr, "splitbench: -update-baseline needs the %s experiments in the run\n", list("and"))
		failed = true
	}
	if *updateBaseline && allGated {
		// Rows the run reproduced keep their records, revision included,
		// so the file's diff is the rows that moved.
		base, err := benchfmt.Load(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v; every row is re-pinned\n", err)
		}
		gated, moved := benchfmt.Repin(base, recs)
		if err := benchfmt.Save(*baselinePath, gated); err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: write %s: %v\n", *baselinePath, err)
			failed = true
		} else {
			fmt.Printf("baseline %s updated: %d pinned counters, %d re-pinned at rev %s\n",
				*baselinePath, len(gated), moved, rev)
		}
	} else if *checkBaseline && len(ranGated) > 0 {
		base, err := benchfmt.Load(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: load baseline %s: %v\n", *baselinePath, err)
			failed = true
		} else if drifts := benchfmt.DiffBaseline(base, recs, ranGated); len(drifts) > 0 {
			fmt.Fprintf(os.Stderr, "splitbench: %d deterministic counter(s) drifted from %s:\n", len(drifts), *baselinePath)
			for _, d := range drifts {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			fmt.Fprintln(os.Stderr, "if this change is intentional, refresh the baseline with:")
			fmt.Fprintln(os.Stderr, "  go run ./cmd/splitbench -update-baseline")
			failed = true
		} else {
			fmt.Printf("baseline check passed: %d pinned counters match %s\n",
				len(benchfmt.GatedSubset(recs)), *baselinePath)
		}
	}
	if failed {
		os.Exit(1)
	}
}
