// Command crashcheck runs crash-consistency campaigns against the file-
// system stacks of internal/stack (the three SplitFS kinds by default):
// deterministic workloads are recorded once to trace every persistence
// event (each Store/StoreNT/Flush/Fence on the PM device), then replayed
// with a crash materialized at each crash point — an event taken four
// ways: unfenced cache lines reverted, torn under two seeds, or the
// event's own store landed whole — recovered, and checked against the
// kind's guarantee (§3.2 Table 3; recovery per §5.3; oracles in
// DESIGN.md). -sample counts crash points, not events.
//
// Campaigns fan out over one worker pool (-workers, at least 1) across
// kinds × seeds × workload families, direct and served sweeps alike.
// Beyond the per-event sweep it supports metadata-heavy workloads
// (create/unlink/rename/truncate/mkdir, orphan unlinks; also with the
// journal commits thinned out, so sync- and strict-mode recoveries have
// metadata operations to redo from the op log),
// double-crash sweeps (crash again inside recovery itself), and
// automatic minimization of any violating campaign to a small
// reproducer.
//
// Usage:
//
//	crashcheck [-seeds N] [-ops N] [-kind KIND,...]
//	           [-sample N] [-metadata] [-async] [-served] [-leases]
//	           [-served-crash] [-tenants N] [-fault-cadence N]
//	           [-double-crash] [-double-sample N]
//	           [-minimize] [-out FILE] [-workers N] [-v]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -kind lists stack.Kinds() names; the default is the three splitfs-*.
//
// -served adds differential campaigns through the multi-tenant file
// service (internal/server): every generated trace runs via a served:
// session over all eight backends and must land byte-identical to the
// direct ext4-dax reference.
//
// -leases extends the served campaigns with the zero-copy data plane:
// the differential additionally sweeps served-lease: sessions (mmap
// leases on, reads and writes through the shared mapping) over
// all eight backends, and -served-crash sweeps turn leases on for every
// tenant with leased-read probes held across the daemon kill.
//
// -served-crash adds daemon-death sweeps: -tenants concurrent sessions
// run mixed workloads over the stream transport, with a wire cut armed
// on every -fault-cadence-th dial (0 turns wire faults off), while the
// device is armed to crash at a sampled persistence event; the daemon
// is torn down mid-flight, the backend recovered, the daemon restarted,
// and every tenant reconnects, replays, and finishes. Per-tenant kind
// oracles and exactly-once counters for rename/unlink/append are
// checked after every kill.
//
// -minimize ddmin-shrinks the first violating sweep of each kind,
// direct and served, to a minimal reproducer: one op list for a direct
// campaign, one per tenant for a served one.
//
// -out FILE writes a report of any violations — including the minimized
// reproducer when -minimize is set — to FILE, so a scheduled run can
// upload it as a build artifact. No file is written on a clean sweep.
//
// -cpuprofile FILE writes a CPU profile of the whole run to FILE, for go
// tool pprof; -memprofile FILE writes the allocs profile (every byte and
// object the run allocated, by call stack) to FILE at exit, after a GC.
// What the run prints is the same with them or without them.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"splitfs/internal/crash"
	"splitfs/internal/pmem"
	"splitfs/internal/stack"
)

// A job is one sweep, direct or served. The pool, the report and the
// minimizer run every job alike; each kind keeps its own lines.
type job struct {
	name      string // how errors and the minimizer name it
	size      string // what the minimizer says of its workload
	tag       string // its kind: the prefix of its violations in the report
	most      int    // the largest sample its minimizer re-sweeps with
	violation func(v crash.Violation) string
	progress  func(r *crash.ExploreResult) string // the -v line
	explore   func() (*crash.ExploreResult, error)
	minimize  func(sample int, include []pmem.CrashPoint) (*crash.MinimizeResult, error)
}

// directJob is the persistence-event sweep of one workload.
func directJob(name string, cfg crash.ExploreConfig) job {
	return job{name: name, size: fmt.Sprintf("%d ops", len(cfg.Ops)), most: 32,
		violation: func(v crash.Violation) string {
			return fmt.Sprintf("VIOLATION %s %s: %s", name, where(v), v.Msg)
		},
		progress: func(r *crash.ExploreResult) string {
			return fmt.Sprintf("%-22s events=%-5d points=%-5d tested=%-5d double=%-4d violations=%d",
				name, r.TotalEvents, r.TotalPoints, r.Tested, sum(r.DoubleTested), len(r.Violations))
		},
		explore: func() (*crash.ExploreResult, error) { return crash.Explore(cfg) },
		minimize: func(sample int, include []pmem.CrashPoint) (*crash.MinimizeResult, error) {
			c := cfg
			c.Sample, c.Include = sample, include
			return crash.Minimize(c)
		}}
}

// servedJob is the daemon-death sweep of one served campaign.
func servedJob(cfg crash.ServedExploreConfig) job {
	kind := strings.TrimPrefix(cfg.Kind, "splitfs-") // a SplitFS kind goes by its mode
	return job{name: fmt.Sprintf("served-crash %s/seed%d", kind, cfg.Seed),
		size: fmt.Sprintf("%d tenants x %d ops", cfg.Tenants, cfg.OpsPerTenant), tag: "SERVED ", most: 16,
		violation: func(v crash.Violation) string {
			return fmt.Sprintf("SERVED VIOLATION %s/seed%d %s: %s", kind, cfg.Seed, where(v), v.Msg)
		},
		progress: func(r *crash.ExploreResult) string {
			return fmt.Sprintf("served-crash %s/seed%-2d window=[%d,%d] killed=%-4d violations=%d",
				kind, cfg.Seed, r.Window[0], r.Window[1], r.Tested, len(r.Violations))
		},
		explore: func() (*crash.ExploreResult, error) { return crash.ServedExplore(cfg) },
		minimize: func(sample int, include []pmem.CrashPoint) (*crash.MinimizeResult, error) {
			c := cfg
			c.Sample, c.Include = sample, include
			return crash.Minimize(c)
		}}
}

// families are the workload generators. An event campaign of seed s runs
// gen(s*mul) and crashes with seed s^xor; the served differential runs
// gen(s*31) of every family.
var families = []struct {
	name     string
	gen      func(uint64, int) []crash.Op
	mul, xor uint64
}{
	{"write", crash.RandomOps, 13, 0},
	{"meta", crash.MetadataOps, 29, 0xa5},
	{"burst", crash.MetaBurstOps, 37, 0x5b},
	{"async", crash.AsyncOps, 17, 0x3c},
	{"fragment", crash.FragmentOps, 19, 0x7e},
	{"scatter", crash.ScatterOps, 23, 0x9d},
}

func main() {
	seeds := flag.Int("seeds", 3, "random workloads per kind and family")
	nops := flag.Int("ops", 25, "operations per workload")
	kindFlag := flag.String("kind", "splitfs-posix,splitfs-sync,splitfs-strict", "comma-separated stack kinds to crash, of "+strings.Join(stack.Kinds(), ", "))
	sample := flag.Int("sample", 0, "max events tested per workload (0 = every persistence event)")
	metadata := flag.Bool("metadata", false, "add metadata-heavy workloads (create/unlink/rename/truncate/mkdir), as generated and with the commits thinned out so that recovery has metadata operations to redo from the op log")
	async := flag.Bool("async", false, "add fsync-path workloads: multi-file fsyncs + group syncs sharing one journal commit, files fragmented past their inode's inline extents, so crashes land in partial write-backs of extent-overflow blocks, and fsyncs after scattered overwrites, whose one relink call carries many moves out of two staging files")
	served := flag.Bool("served", false, "add served-backend differential campaigns: each trace through the session/RPC layer over all eight backends must match direct ext4-dax byte for byte")
	leases := flag.Bool("leases", false, "turn the zero-copy lease plane on in served campaigns: the differential adds served-lease: sessions over all eight backends, and served-crash tenants hold leases across every daemon kill")
	servedCrash := flag.Bool("served-crash", false, "add served daemon-death sweeps: kill the daemon at sampled persistence events while tenants are mid-pipeline, recover, restart, reconnect every tenant, and check per-tenant oracles plus exactly-once counters")
	tenants := flag.Int("tenants", 3, "concurrent tenant sessions per served-crash campaign")
	faultCadence := flag.Int("fault-cadence", 2, "arm a wire cut on every Nth tenant dial in served-crash sweeps (2 = every other dial, 0 = no wire faults; the nightly matrix sweeps this)")
	doubleCrash := flag.Bool("double-crash", false, "also crash again inside each recovery")
	doubleSample := flag.Int("double-sample", 3, "second-crash points per recovery (0 = every point)")
	minimize := flag.Bool("minimize", false, "shrink the first violating campaign of each kind, direct and served, to a minimal reproducer")
	outPath := flag.String("out", "", "write a violation report (with any minimized reproducer) to this file")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel campaign workers (at least 1)")
	verbose := flag.Bool("v", false, "per-campaign progress lines")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write the allocs profile of the run to this file at exit (go tool pprof)")
	flag.Parse()

	kinds := strings.Split(*kindFlag, ",")
	for _, k := range kinds {
		if !slices.Contains(stack.Kinds(), k) {
			fmt.Fprintf(os.Stderr, "crashcheck: unknown kind %q (have %v)\n", k, stack.Kinds())
			os.Exit(2)
		}
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "crashcheck: -workers %d: need at least one worker\n", *workers)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
	}
	var memFile *os.File
	if *memProfile != "" {
		var err error
		if memFile, err = os.Create(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: -memprofile: %v\n", err)
			os.Exit(2)
		}
	}

	enabled := map[string]bool{"write": true, "meta": *metadata, "burst": *metadata, "async": *async, "fragment": *async, "scatter": *async}
	var jobs []job
	for _, kind := range kinds {
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			for _, fam := range families {
				if enabled[fam.name] {
					jobs = append(jobs, directJob(fmt.Sprintf("%s/%s/seed%d", strings.TrimPrefix(kind, "splitfs-"), fam.name, seed),
						crash.ExploreConfig{Kind: kind, Ops: fam.gen(seed*fam.mul, *nops),
							Seed: seed ^ fam.xor, Sample: *sample,
							DoubleCrash: *doubleCrash, DoubleSample: *doubleSample}))
				}
			}
		}
	}
	// Served daemon-death sweeps: tenants take turns over the stream
	// transport (wire faults at -fault-cadence) while the device is armed
	// to crash at sampled persistence events; every kill is followed by
	// recovery, daemon restart, tenant reconnect/replay, and a full
	// oracle + exactly-once check.
	for _, kind := range kinds {
		for seed := uint64(1); *servedCrash && seed <= uint64(*seeds); seed++ {
			jobs = append(jobs, servedJob(crash.ServedExploreConfig{Sample: *sample,
				ServedCampaign: crash.ServedCampaign{Kind: kind, Tenants: *tenants,
					OpsPerTenant: *nops, Seed: seed, FaultCadence: *faultCadence, Leases: *leases}}))
		}
	}

	servedFailed := *served && !servedDifferential(*seeds, *nops, *leases)
	results, failed := sweep(jobs, *workers, *verbose)

	n, total := tally(jobs, results, "")
	fmt.Printf("crashcheck: %d campaigns, %d runs, %d/%d crash points of %d events crashed (+%d second crashes, by way:%s), %d violations\n",
		n, total.Runs, total.Tested, total.TotalPoints, total.TotalEvents, sum(total.DoubleTested), byWay(total.DoubleTested), len(total.Violations))
	fmt.Printf("op-log metadata replay: %d operations redone, %d records already committed, %d interrupted replays resumed by the second recovery, %d op-log rewinds crossed\n",
		total.MetaReplayed, total.MetaSkipped, total.DoubleInMetaReplay, total.Rewinds)
	fmt.Printf("crash-point coverage by kind:")
	for _, k := range slices.Sorted(maps.Keys(total.ByKind)) {
		fmt.Printf(" %s=%d/%d", k, total.TestedByKind[k], total.ByKind[k])
	}
	fmt.Printf("; tested by way:%s\n", byWay(total.TestedByWay))
	if *servedCrash {
		n, served := tally(jobs, results, "SERVED ")
		fmt.Printf("crashcheck: served-crash: %d sweeps x %d tenants, %d daemon kills, %d violations\n",
			n, *tenants, served.Tested, len(served.Violations))
	}
	if len(total.UnknownKinds) > 0 {
		// A kind or source this build does not know means someone added a
		// persistence-event category without teaching the coverage tables
		// about it — the sweep crashed at events whose semantics nobody
		// vouched for. That is a harness bug, so fail loudly rather than
		// bucket them quietly.
		fmt.Fprintf(os.Stderr, "crashcheck: UNKNOWN EVENT KINDS swept: %v — update pmem event kinds/sources and the coverage tables\n",
			slices.Compact(slices.Sorted(slices.Values(total.UnknownKinds))))
		failed = true
	}

	report := buildReport(jobs, results, *minimize, *sample)
	if *outPath != "" && report != "" {
		if err := os.WriteFile(*outPath, []byte(report), 0644); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: write %s: %v\n", *outPath, err)
		} else {
			fmt.Printf("violation report written to %s\n", *outPath)
		}
	}
	// Stopped here, as os.Exit runs no deferred call; without -cpuprofile
	// it does nothing.
	pprof.StopCPUProfile()
	if memFile != nil {
		runtime.GC() // the profile's in-use figures as of the last GC
		err := pprof.Lookup("allocs").WriteTo(memFile, 0)
		if cerr := memFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: -memprofile: %v\n", err)
			failed = true
		}
	}
	if report != "" || failed || servedFailed { // the report is empty unless something was violated
		os.Exit(1)
	}
}

// sweep runs the jobs on a pool of workers, printing each violation,
// and with verbose each job's progress line, as the job finishes. It
// returns every job's result (an empty one for a job that failed, which
// it reports on stderr) and whether any failed.
func sweep(jobs []job, workers int, verbose bool) ([]*crash.ExploreResult, bool) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		results = make([]*crash.ExploreResult, len(jobs))
		failed  bool
		jobCh   = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := &jobs[idx]
				res, err := j.explore()
				mu.Lock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "crashcheck: %s: %v\n", j.name, err)
					res, failed = &crash.ExploreResult{}, true
				}
				results[idx] = res
				for _, v := range res.Violations {
					fmt.Println(j.violation(v))
				}
				if verbose && err == nil {
					fmt.Println(j.progress(res))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()
	return results, failed
}

// byWay lists crash counts by way, in the order the ways sort.
func byWay(counts map[string]int64) string {
	var b strings.Builder
	for _, w := range slices.Sorted(maps.Keys(counts)) {
		fmt.Fprintf(&b, " %s=%d", w, counts[w])
	}
	return b.String()
}

// sum is the total of crash counts by way.
func sum(counts map[string]int64) int64 {
	var n int64
	for _, v := range counts {
		n += v
	}
	return n
}

// tally counts the jobs of one kind and sums their results.
func tally(jobs []job, results []*crash.ExploreResult, tag string) (int, crash.ExploreResult) {
	n, t := 0, crash.ExploreResult{ByKind: map[string]int64{}, TestedByKind: map[string]int64{}, TestedByWay: map[string]int64{}, DoubleTested: map[string]int64{}}
	for i, r := range results {
		if jobs[i].tag != tag {
			continue
		}
		n++
		t.TotalEvents += r.TotalEvents
		t.TotalPoints += r.TotalPoints
		t.Tested += r.Tested
		t.Runs += r.Runs
		t.MetaReplayed += r.MetaReplayed
		t.Rewinds += r.Rewinds
		t.MetaSkipped += r.MetaSkipped
		t.DoubleInMetaReplay += r.DoubleInMetaReplay
		for k, v := range r.ByKind {
			t.ByKind[k] += v
		}
		for k, v := range r.TestedByKind {
			t.TestedByKind[k] += v
		}
		for w, v := range r.TestedByWay {
			t.TestedByWay[w] += v
		}
		for w, v := range r.DoubleTested {
			t.DoubleTested[w] += v
		}
		t.UnknownKinds = append(t.UnknownKinds, r.UnknownKinds...)
		t.Violations = append(t.Violations, r.Violations...)
	}
	return n, t
}

// buildReport is the violation report: every violation in job order,
// then, with minimize, the minimal reproducer of the first violating
// job of each kind, which it also prints.
func buildReport(jobs []job, results []*crash.ExploreResult, minimize bool, sample int) string {
	var report strings.Builder
	for i, r := range results {
		for _, v := range r.Violations {
			writeViolation(&report, jobs[i].tag, v)
		}
	}
	shrunk := map[string]bool{}
	for i, r := range results {
		j := &jobs[i]
		if !minimize || len(r.Violations) == 0 || shrunk[j.tag] {
			continue
		}
		shrunk[j.tag] = true
		fmt.Printf("minimizing %s (%s)...\n", j.name, j.size)
		min, err := j.minimize(minimizerSweep(sample, j.most, r.Violations))
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: %s: minimize: %v\n", j.name, err)
			fmt.Fprintf(&report, "%s: minimize failed: %v\n", j.name, err)
			continue
		}
		ops := 0
		for _, w := range min.Workloads {
			ops += len(w)
		}
		reportRepro(&report, fmt.Sprintf("minimal reproducer for %s: %d ops (%d runs): %s\n",
			j.name, ops, min.Runs, min.Violation.Msg), len(min.Workloads) > 1, min.Workloads)
	}
	return report.String()
}

// servedDifferential runs the served-backend differential campaigns
// (cheap next to event sweeps, so they need no worker pool): the
// generated traces go through the multi-tenant service over every
// backend, and the final namespaces and contents must equal the direct
// ext4-dax reference exactly. It reports whether all of them did.
func servedDifferential(seeds, nops int, leases bool) bool {
	kinds := []string{"ext4-dax"}
	for _, lease := range []bool{false, true} {
		for _, k := range stack.Kinds() {
			if leases || !lease {
				kinds = append(kinds, stack.Name(k, true, lease))
			}
		}
	}
	ran, mismatches, clean := 0, 0, true
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		for _, fam := range families {
			res, err := crash.Differential(kinds, fam.gen(seed*31, nops))
			if err != nil {
				fmt.Fprintf(os.Stderr, "crashcheck: served/%s/seed%d: %v\n", fam.name, seed, err)
				clean = false
				continue
			}
			ran++
			for _, m := range res.Mismatches {
				fmt.Printf("SERVED MISMATCH %s/seed%d: %s\n", fam.name, seed, m)
				mismatches++
			}
		}
	}
	fmt.Printf("crashcheck: served differential: %d traces x %d backends, %d mismatches\n",
		ran, len(kinds)-1, mismatches)
	return clean && mismatches == 0
}
