// Command crashcheck runs crash-consistency campaigns against SplitFS:
// deterministic workloads are recorded once to number every persistence
// event (each Store/StoreNT/Flush/Fence on the PM device), then replayed
// with a crash materialized at each event — torn unfenced cache lines
// included — recovered, and checked against the mode's guarantee
// (§3.2 Table 3; recovery per §5.3; oracles in DESIGN.md).
//
// Campaigns fan out over a worker pool across modes × seeds × workload
// families. Beyond the per-event sweep it supports metadata-heavy
// workloads (create/unlink/rename/truncate/mkdir, orphan unlinks; also
// with the journal commits thinned out, so sync- and strict-mode
// recoveries have metadata operations to redo from the op log),
// double-crash sweeps (crash again inside recovery itself), and
// automatic minimization of any violating campaign to a small
// reproducer.
//
// Usage:
//
//	crashcheck [-seeds N] [-ops N] [-mode all|posix|sync|strict]
//	           [-sample N] [-metadata] [-async] [-served] [-leases]
//	           [-served-crash] [-tenants N] [-fault-cadence N]
//	           [-double-crash] [-double-sample N]
//	           [-minimize] [-out FILE] [-workers N] [-v]
//
// -served adds differential campaigns through the multi-tenant file
// service (internal/server): every generated trace runs via a served:
// session over all nine backends and must land byte-identical to the
// direct ext4-dax reference.
//
// -leases extends the served campaigns with the zero-copy data plane:
// the differential additionally sweeps served-lease: sessions (mmap
// leases negotiated, reads and writes through the shared mapping) over
// all nine backends, and -served-crash sweeps negotiate leases on every
// tenant with leased-read probes held across the daemon kill.
//
// -served-crash adds daemon-death sweeps: -tenants concurrent sessions
// run mixed workloads over the stream transport (with wire faults on)
// while the device is armed to crash at a sampled persistence event;
// the daemon is torn down mid-flight, the backend recovered, the
// daemon restarted, and every tenant reconnects, replays, and
// finishes. Per-tenant mode oracles and exactly-once counters for
// rename/unlink/append are checked after every kill. With -minimize,
// a violating sweep's tenant workloads are ddmin-shrunk to a minimal
// reproducer.
//
// -out FILE writes a report of any violations — including the minimized
// reproducer when -minimize is set — to FILE, so a scheduled run can
// upload it as a build artifact. No file is written on a clean sweep.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"splitfs/internal/crash"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
)

type job struct {
	name string
	cfg  crash.ExploreConfig
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
	seeds := flag.Int("seeds", 3, "random workloads per mode and family")
	nops := flag.Int("ops", 25, "operations per workload")
	modeFlag := flag.String("mode", "all", "consistency mode: all, posix, sync, strict")
	sample := flag.Int("sample", 0, "max events tested per workload (0 = every persistence event)")
	metadata := flag.Bool("metadata", false, "add metadata-heavy workloads (create/unlink/rename/truncate/mkdir), as generated and with the commits thinned out so that recovery has metadata operations to redo from the op log")
	async := flag.Bool("async", false, "add fsync-path workloads: multi-file fsyncs + group syncs sharing one journal commit, files fragmented past their inode's inline extents, so crashes land in partial write-backs of extent-overflow blocks, and fsyncs after scattered overwrites, whose one relink call carries many moves out of two staging files")
	served := flag.Bool("served", false, "add served-backend differential campaigns: each trace through the session/RPC layer over all nine backends must match direct ext4-dax byte for byte")
	leases := flag.Bool("leases", false, "negotiate the zero-copy lease plane in served campaigns: the differential adds served-lease: sessions over all nine backends, and served-crash tenants hold leases across every daemon kill")
	servedCrash := flag.Bool("served-crash", false, "add served daemon-death sweeps: kill the daemon at sampled persistence events while tenants are mid-pipeline, recover, restart, reconnect every tenant, and check per-tenant oracles plus exactly-once counters")
	tenants := flag.Int("tenants", 3, "concurrent tenant sessions per served-crash campaign")
	faultCadence := flag.Int("fault-cadence", 2, "arm a wire cut on every Nth tenant dial in served-crash sweeps (2 = every other dial; the nightly matrix sweeps this)")
	doubleCrash := flag.Bool("double-crash", false, "also crash again inside each recovery")
	doubleSample := flag.Int("double-sample", 3, "second-crash events tested per recovery")
	minimize := flag.Bool("minimize", false, "shrink the first violating campaign to a minimal reproducer")
	outPath := flag.String("out", "", "write a violation report (with any minimized reproducer) to this file")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel campaign workers")
	verbose := flag.Bool("v", false, "per-campaign progress lines")
	flag.Parse()

	modes, ok := map[string][]splitfs.Mode{
		"all":    {splitfs.POSIX, splitfs.Sync, splitfs.Strict},
		"posix":  {splitfs.POSIX},
		"sync":   {splitfs.Sync},
		"strict": {splitfs.Strict},
	}[*modeFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "crashcheck: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	enabled := map[string]bool{"write": true, "meta": *metadata, "burst": *metadata, "async": *async, "fragment": *async, "scatter": *async}
	var jobs []job
	for _, mode := range modes {
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			for _, fam := range families {
				if !enabled[fam.name] {
					continue
				}
				jobs = append(jobs, job{
					name: fmt.Sprintf("%v/%s/seed%d", mode, fam.name, seed),
					cfg: crash.ExploreConfig{Mode: mode, Ops: fam.gen(seed*fam.mul, *nops),
						Seed: seed ^ fam.xor, Sample: *sample,
						DoubleCrash: *doubleCrash, DoubleSample: *doubleSample},
				})
			}
		}
	}

	servedFailed := *served && !servedDifferential(*seeds, *nops, *leases)

	// Served daemon-death sweeps: tenants run concurrently over the
	// stream transport (wire faults on) while the device is armed to
	// crash at sampled persistence events; every kill is followed by
	// recovery, daemon restart, tenant reconnect/replay, and a full
	// oracle + exactly-once check.
	var (
		servedVios   []crash.Violation
		servedVioCfg *crash.ServedExploreConfig
	)
	if *servedCrash {
		sweeps, killed, notFired := 0, 0, 0
		for _, mode := range modes {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				cfg := crash.ServedExploreConfig{Sample: *sample,
					ServedCampaign: crash.ServedCampaign{Mode: mode, Tenants: *tenants,
						OpsPerTenant: *nops, Seed: seed, WireFaults: true,
						FaultCadence: *faultCadence, Leases: *leases}}
				res, err := crash.ServedExplore(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "crashcheck: served-crash/%v/seed%d: %v\n", mode, seed, err)
					servedFailed = true
					continue
				}
				sweeps++
				killed += res.Tested
				notFired += res.NotFired
				for _, v := range res.Violations {
					fmt.Printf("SERVED VIOLATION %v/seed%d event=%d: %s\n", mode, seed, v.Event, v.Msg)
				}
				if len(res.Violations) > 0 && servedVioCfg == nil {
					servedVioCfg = &cfg
				}
				servedVios = append(servedVios, res.Violations...)
				if *verbose {
					fmt.Printf("served-crash %v/seed%-2d window=[%d,%d] killed=%-4d notfired=%-3d violations=%d\n",
						mode, seed, res.Window[0], res.Window[1], res.Tested, res.NotFired, len(res.Violations))
				}
			}
		}
		fmt.Printf("crashcheck: served-crash: %d sweeps x %d tenants, %d daemon kills (%d fell short of the armed event), %d violations\n",
			sweeps, *tenants, killed, notFired, len(servedVios))
	}

	var (
		mu      sync.Mutex
		total   = crash.ExploreResult{ByKind: map[string]int64{}, TestedByKind: map[string]int64{}}
		unknown = map[string]bool{}
		vioJob  *job
		failed  bool
	)
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				res, err := crash.Explore(j.cfg)
				mu.Lock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "crashcheck: %s: %v\n", j.name, err)
					failed = true
					mu.Unlock()
					continue
				}
				total.TotalEvents += res.TotalEvents
				total.Tested += res.Tested
				total.DoubleTested += res.DoubleTested
				total.Runs += res.Runs
				total.MetaReplayed += res.MetaReplayed
				total.MetaSkipped += res.MetaSkipped
				total.DoubleInMetaReplay += res.DoubleInMetaReplay
				for k, n := range res.ByKind {
					total.ByKind[k] += n
				}
				for k, n := range res.TestedByKind {
					total.TestedByKind[k] += n
				}
				for _, k := range res.UnknownKinds {
					unknown[k] = true
				}
				for _, v := range res.Violations {
					fmt.Printf("VIOLATION %s event=%d double=%d: %s\n",
						j.name, v.Event, v.DoubleEvent, v.Msg)
				}
				if len(res.Violations) > 0 && vioJob == nil {
					vioJob = &j
				}
				total.Violations = append(total.Violations, res.Violations...)
				if *verbose {
					fmt.Printf("%-22s events=%-5d tested=%-5d double=%-4d violations=%d\n",
						j.name, res.TotalEvents, res.Tested, res.DoubleTested, len(res.Violations))
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

	fmt.Printf("crashcheck: %d campaigns, %d runs, %d/%d events crashed (+%d double-crash), %d violations\n",
		len(jobs), total.Runs, total.Tested, total.TotalEvents, total.DoubleTested, len(total.Violations))
	fmt.Printf("op-log metadata replay: %d operations redone, %d records already committed, %d interrupted replays resumed by the second recovery\n",
		total.MetaReplayed, total.MetaSkipped, total.DoubleInMetaReplay)
	fmt.Printf("event coverage by kind:")
	for _, k := range slices.Sorted(maps.Keys(total.ByKind)) {
		fmt.Printf(" %s=%d/%d", k, total.TestedByKind[k], total.ByKind[k])
	}
	fmt.Println()
	if len(unknown) > 0 {
		// A kind or source this build does not know means someone added a
		// persistence-event category without teaching the coverage tables
		// about it — the sweep crashed at events whose semantics nobody
		// vouched for. That is a harness bug, so fail loudly rather than
		// bucket them quietly.
		fmt.Fprintf(os.Stderr, "crashcheck: UNKNOWN EVENT KINDS swept: %v — update pmem event kinds/sources and the coverage tables\n",
			slices.Sorted(maps.Keys(unknown)))
		failed = true
	}

	var report strings.Builder
	for _, v := range total.Violations {
		writeViolation(&report, "", v)
	}
	for _, v := range servedVios {
		writeViolation(&report, "SERVED ", v)
	}
	if servedVioCfg != nil && *minimize {
		cfg := *servedVioCfg
		fmt.Printf("minimizing served-crash %v/seed%d (%d tenants x %d ops)...\n",
			cfg.Mode, cfg.Seed, cfg.Tenants, cfg.OpsPerTenant)
		cfg.Sample, cfg.Include = minimizerSweep(cfg.Sample, 16, servedVios, cfg.Mode, cfg.Seed)
		if min, err := crash.ServedMinimize(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: served minimize: %v\n", err)
			fmt.Fprintf(&report, "served minimize failed: %v\n", err)
		} else {
			reportRepro(&report, fmt.Sprintf("minimal served reproducer %v/seed%d (%d runs): %s\n",
				cfg.Mode, cfg.Seed, min.Runs, min.Violation.Msg), true, min.TenantOps)
		}
	}
	if vioJob != nil && *minimize {
		cfg := vioJob.cfg
		fmt.Printf("minimizing %s (%d ops)...\n", vioJob.name, len(cfg.Ops))
		cfg.Sample, cfg.Include = minimizerSweep(cfg.Sample, 32, total.Violations, cfg.Mode, cfg.Seed)
		if min, err := crash.Minimize(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: minimize: %v\n", err)
			fmt.Fprintf(&report, "minimize failed: %v\n", err)
		} else {
			reportRepro(&report, fmt.Sprintf("minimal reproducer for %s: %d ops (%d runs): %s\n",
				vioJob.name, len(min.Ops), min.Runs, min.Violation.Msg), false, [][]crash.Op{min.Ops})
		}
	}
	if *outPath != "" && report.Len() > 0 {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0644); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: write %s: %v\n", *outPath, err)
		} else {
			fmt.Printf("violation report written to %s\n", *outPath)
		}
	}
	if report.Len() > 0 || failed || servedFailed { // the report is empty unless something was violated
		os.Exit(1)
	}
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
