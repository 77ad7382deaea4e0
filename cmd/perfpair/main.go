// Command perfpair turns a performance claim into a command: it runs the
// repository's benchmark on a parent and a change in alternating pairs
// and judges every metric by the rule a claim has to meet.
//
//	perfpair [-workloads meta-churn,rw-inplace] [-pairs 10] <parent> <change>
//	perfpair -bench 'BenchmarkParallelAppends$' [-pairs 10] <parent> <change>
//
// Run it from the repository root. <parent> and <change> are git
// revisions, or "." for the working tree as it stands (tracked files and
// untracked ones .gitignore does not exclude). Each is checked out with
// git archive — offline, and leaving nothing in the repository's .git —
// into a scratch directory (-dir), and built there once.
//
// The default mode runs cmd/splitperf/run.sh as BENCHMARK.json declares
// it, and reads its last line. Pair i runs seed first+i on both sides,
// the parent first when the seed is even (Mytkowicz et al., ASPLOS '09:
// order and layout must not favour a side). first is one above the
// highest seed in the committed ledger, cmd/perfpair/seeds.ledger, and
// the range is appended to it before the first run: a seed spent once —
// while the change was written, say — never judges it. -bench runs the
// root package's `go test -bench` binary built on each side instead, at
// -benchtime 50x, pair i with the parent first when i is even; it spends
// no seeds.
//
// It prints one table, a row per workload (or benchmark) and metric:
// median [quartiles] of each side, the change of the median, how many
// pairs the change won (ties count for neither), whether the change's
// median lies inside the parent's quartiles, and a verdict (see judge).
// The same rows follow as one line of JSON. The exit status is 1 when a
// row is worse than its bound, a simulated metric differs between the
// sides at some seed on a single-client workload (unless
// -expect-sim-change), or a run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
	flag.IntVar(&o.pairs, "pairs", 10, "pairs of runs per workload or benchmark")
	flag.BoolVar(&o.expectSim, "expect-sim-change", false, "the change moves simulated metrics: report them, do not fail on them")
	flag.StringVar(&o.bench, "bench", "", "go test -bench regexp: pair benchmark binaries instead of splitperf")
	flag.StringVar(&o.dir, "dir", "", "scratch directory for the checkouts, without parent/ or change/ in it (default: a new temporary one, removed after)")
	flag.Parse()
	if flag.NArg() != 2 || o.pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfpair [flags] <parent> <change>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	rows, failed, err := run(o, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpair:", err)
		os.Exit(2)
	}
	printTable(os.Stdout, rows)
	line, err := json.Marshal(rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpair:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	bad := failed
	for _, r := range rows {
		bad = bad || r.Verdict == verdictWorse || r.Verdict == verdictSim
	}
	if bad {
		os.Exit(1)
	}
}

type options struct {
	workloads, bench, dir string
	pairs                 int
	expectSim             bool
}

// simulated are the end-to-end metrics that are exact functions of the
// seed when one client drives the stack; concurrent, the workloads with
// more than one, where they need not be.
var (
	simulated  = []string{"sim_ns_per_op", "sim_overhead_ns_per_op", "pm_write_amp"}
	concurrent = []string{"served-mix"}
)

const (
	// ledgerPath is the seed ledger, from the repository root.
	ledgerPath = "cmd/perfpair/seeds.ledger"
	// benchPkg and benchTime are the package -bench builds and the
	// -benchtime its binary runs at.
	benchPkg  = "."
	benchTime = "50x"
	// benchBound is the relative amount a -bench metric may worsen by:
	// the benchmarks have no bounds of their own in BENCHMARK.json.
	benchBound = 0.05
)

// side is one checkout: its name (the revision's short hash) and where it
// is.
type side struct{ name, dir string }

// run checks both sides out, runs the pairs and judges them. failed
// reports a run that exited non-zero, was incorrect or lost operations.
func run(o options, parentRev, changeRev string) (rows []row, failed bool, err error) {
	root, err := gitOut(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, false, err
	}
	dir := o.dir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "perfpair-"); err != nil {
			return nil, false, err
		}
		defer os.RemoveAll(dir)
	}
	var sides [2]side
	for i, rev := range []string{parentRev, changeRev} {
		s := side{dir: filepath.Join(dir, [2]string{"parent", "change"}[i])}
		if s.name, err = checkout(root, rev, s.dir); err != nil {
			return nil, false, fmt.Errorf("checkout %s: %w", rev, err)
		}
		sides[i] = s
	}
	fmt.Fprintf(os.Stderr, "perfpair: parent %s, change %s, in %s\n", sides[0].name, sides[1].name, dir)
	if o.bench != "" {
		return runBench(o, sides)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, false, err
	}
	return runSplitperf(o, spec, filepath.Join(root, ledgerPath), sides)
}

// runSplitperf runs every workload in o.pairs alternating pairs over
// seeds drawn above the ledger.
func runSplitperf(o options, spec benchSpec, ledger string, sides [2]side) ([]row, bool, error) {
	workloads := spec.workloadNames()
	if o.workloads != "" {
		workloads = strings.Split(o.workloads, ",")
	}
	first, err := reserveSeeds(ledger, o.pairs, fmt.Sprintf("%s %s..%s", strings.Join(workloads, ","), sides[0].name, sides[1].name))
	if err != nil {
		return nil, false, err
	}
	var rows []row
	failed := false
	for _, w := range workloads {
		var runs [2][]splitperfRun
		for i := 0; i < o.pairs; i++ {
			seed := first + uint64(i)
			for _, k := range order(seed%2 == 0) {
				r, err := runSplitperfOnce(sides[k].dir, w, seed, spec.RunSeconds)
				if err != nil {
					return nil, false, fmt.Errorf("%s %s seed %d: %w", sides[k].name, w, seed, err)
				}
				if !r.ok() {
					failed = true
					fmt.Fprintf(os.Stderr, "perfpair: %s %s seed %d: correct=%v, %d of %d operations failed\n", sides[k].name, w, seed, r.Correct, r.Failed, r.Attempted)
				}
				runs[k] = append(runs[k], r)
			}
			fmt.Fprintf(os.Stderr, "perfpair: %s seed %d done (%d/%d)\n", w, seed, i+1, o.pairs)
		}
		for _, m := range spec.EndToEnd {
			exact := slices.Contains(simulated, m.Name) && !slices.Contains(concurrent, w)
			rows = append(rows, judge(w, m, values(runs[0], m.Name), values(runs[1], m.Name), exact && !o.expectSim))
		}
	}
	return rows, failed, nil
}

// order is the sides of one pair in the order they run.
func order(parentFirst bool) [2]int {
	if parentFirst {
		return [2]int{0, 1}
	}
	return [2]int{1, 0}
}
