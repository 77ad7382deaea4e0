// Command crashcheck runs crash-consistency campaigns against SplitFS:
// deterministic workloads are recorded once to number every persistence
// event (each Store/StoreNT/Flush/Fence on the PM device), then replayed
// with a crash materialized at each event — torn unfenced cache lines
// included — recovered, and checked against the mode's guarantee
// (§3.2 Table 3; recovery per §5.3; oracles in DESIGN.md).
//
// Campaigns fan out over a worker pool across modes × seeds × workload
// families. Beyond the per-event sweep it supports metadata-heavy
// workloads (create/unlink/rename/truncate/mkdir, orphan unlinks),
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
	"os"
	"runtime"
	"sort"
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

func main() {
	seeds := flag.Int("seeds", 3, "random workloads per mode and family")
	nops := flag.Int("ops", 25, "operations per workload")
	modeFlag := flag.String("mode", "all", "consistency mode: all, posix, sync, strict")
	sample := flag.Int("sample", 0, "max events tested per workload (0 = every persistence event)")
	metadata := flag.Bool("metadata", false, "add metadata-heavy workloads (create/unlink/rename/truncate/mkdir)")
	async := flag.Bool("async", false, "add async-relink workloads (multi-file fsyncs + group syncs through the background pipeline)")
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

	var modes []splitfs.Mode
	switch *modeFlag {
	case "all":
		modes = []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict}
	case "posix":
		modes = []splitfs.Mode{splitfs.POSIX}
	case "sync":
		modes = []splitfs.Mode{splitfs.Sync}
	case "strict":
		modes = []splitfs.Mode{splitfs.Strict}
	default:
		fmt.Fprintf(os.Stderr, "crashcheck: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	var jobs []job
	for _, mode := range modes {
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			jobs = append(jobs, job{
				name: fmt.Sprintf("%v/write/seed%d", mode, seed),
				cfg: crash.ExploreConfig{Mode: mode, Ops: crash.RandomOps(seed*13, *nops),
					Seed: seed, Sample: *sample,
					DoubleCrash: *doubleCrash, DoubleSample: *doubleSample},
			})
			if *metadata {
				jobs = append(jobs, job{
					name: fmt.Sprintf("%v/meta/seed%d", mode, seed),
					cfg: crash.ExploreConfig{Mode: mode, Ops: crash.MetadataOps(seed*29, *nops),
						Seed: seed ^ 0xa5, Sample: *sample,
						DoubleCrash: *doubleCrash, DoubleSample: *doubleSample},
				})
			}
			if *async {
				jobs = append(jobs, job{
					name: fmt.Sprintf("%v/async/seed%d", mode, seed),
					cfg: crash.ExploreConfig{Mode: mode, Ops: crash.AsyncOps(seed*17, *nops),
						Seed: seed ^ 0x3c, Sample: *sample,
						DoubleCrash: *doubleCrash, DoubleSample: *doubleSample},
				})
			}
		}
	}

	// Served-backend differential campaigns run up front (they are
	// cheap relative to event sweeps and need no worker pool): the same
	// generated traces the event campaigns use go through the
	// multi-tenant service over every backend, and the final namespaces
	// and contents must equal the direct ext4-dax reference exactly.
	servedFailed := false
	if *served {
		kinds := []string{"ext4-dax"}
		for _, k := range stack.Kinds() {
			kinds = append(kinds, stack.Name(k, true, false))
		}
		if *leases {
			for _, k := range stack.Kinds() {
				kinds = append(kinds, stack.Name(k, true, true))
			}
		}
		families := []struct {
			name string
			gen  func(uint64, int) []crash.Op
		}{
			{"write", crash.RandomOps},
			{"meta", crash.MetadataOps},
			{"async", crash.AsyncOps},
		}
		ran, mismatches := 0, 0
		for seed := uint64(1); seed <= uint64(*seeds); seed++ {
			for _, fam := range families {
				res, err := crash.Differential(kinds, fam.gen(seed*31, *nops))
				if err != nil {
					fmt.Fprintf(os.Stderr, "crashcheck: served/%s/seed%d: %v\n", fam.name, seed, err)
					servedFailed = true
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
		if mismatches > 0 {
			servedFailed = true
		}
	}

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
				if len(res.Violations) > 0 {
					servedVios = append(servedVios, res.Violations...)
					if servedVioCfg == nil {
						c := cfg
						servedVioCfg = &c
					}
				}
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
		mu         sync.Mutex
		totalEv    int64
		tested     int
		dblTested  int
		runs       int
		byKind     = map[string]int64{}
		testedKind = map[string]int64{}
		unknown    = map[string]bool{}
		violations []crash.Violation
		vioJob     *job
		failed     bool
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
				totalEv += res.TotalEvents
				tested += res.Tested
				dblTested += res.DoubleTested
				runs += res.Runs
				for k, n := range res.ByKind {
					byKind[k] += n
				}
				for k, n := range res.TestedByKind {
					testedKind[k] += n
				}
				for _, k := range res.UnknownKinds {
					unknown[k] = true
				}
				for _, v := range res.Violations {
					fmt.Printf("VIOLATION %s event=%d double=%d: %s\n",
						j.name, v.Event, v.DoubleEvent, v.Msg)
				}
				if len(res.Violations) > 0 {
					violations = append(violations, res.Violations...)
					if vioJob == nil {
						jc := j
						vioJob = &jc
					}
				}
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
		len(jobs), runs, tested, totalEv, dblTested, len(violations))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("event coverage by kind:")
	for _, k := range kinds {
		fmt.Printf(" %s=%d/%d", k, testedKind[k], byKind[k])
	}
	fmt.Println()
	if len(unknown) > 0 {
		// A kind or source this build does not know means someone added a
		// persistence-event category without teaching the coverage tables
		// about it — the sweep crashed at events whose semantics nobody
		// vouched for. That is a harness bug, so fail loudly rather than
		// bucket them quietly.
		names := make([]string, 0, len(unknown))
		for k := range unknown {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "crashcheck: UNKNOWN EVENT KINDS swept: %v — update pmem event kinds/sources and the coverage tables\n", names)
		failed = true
	}

	var report strings.Builder
	for _, v := range violations {
		fmt.Fprintf(&report, "VIOLATION mode=%v seed=%d event=%d double=%d: %s\n",
			v.Mode, v.Seed, v.Event, v.DoubleEvent, v.Msg)
	}
	for _, v := range servedVios {
		fmt.Fprintf(&report, "SERVED VIOLATION mode=%v seed=%d event=%d: %s\n",
			v.Mode, v.Seed, v.Event, v.Msg)
		if v.Flight != "" {
			// The flight-recorder traces of the breached generation: the
			// last ops each tenant had in flight when the image froze.
			fmt.Fprintf(&report, "flight traces:\n%s", v.Flight)
		}
	}
	if len(servedVios) > 0 && *minimize && servedVioCfg != nil {
		fmt.Printf("minimizing served-crash %v/seed%d (%d tenants x %d ops)...\n",
			servedVioCfg.Mode, servedVioCfg.Seed, servedVioCfg.Tenants, servedVioCfg.OpsPerTenant)
		cfg := *servedVioCfg
		if cfg.Sample == 0 || cfg.Sample > 16 {
			cfg.Sample = 16
		}
		for _, v := range servedVios {
			if v.Event > 0 && v.Mode == cfg.Mode && v.Seed == cfg.Seed {
				cfg.Include = append(cfg.Include, v.Event)
			}
		}
		min, err := crash.ServedMinimize(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: served minimize: %v\n", err)
			fmt.Fprintf(&report, "served minimize failed: %v\n", err)
		} else {
			var repro strings.Builder
			fmt.Fprintf(&repro, "minimal served reproducer %v/seed%d (%d runs): %s\n",
				cfg.Mode, cfg.Seed, min.Runs, min.Violation.Msg)
			for t, ops := range min.TenantOps {
				for i, op := range ops {
					fmt.Fprintf(&repro, "  tenant %d op %d: %v %s %s off=%d size=%d len=%d fsync=%v close=%v\n",
						t, i+1, op.Kind, op.Path, op.Path2, op.Off, op.Size, len(op.Data), op.Fsync, op.Close)
				}
			}
			fmt.Print(repro.String())
			report.WriteString(repro.String())
		}
	}
	if len(violations) > 0 && *minimize && vioJob != nil {
		fmt.Printf("minimizing %s (%d ops)...\n", vioJob.name, len(vioJob.cfg.Ops))
		cfg := vioJob.cfg
		if cfg.Sample == 0 || cfg.Sample > 32 {
			cfg.Sample = 32
		}
		// The minimizer sweeps a smaller sample than the run that found
		// the violation; pin the witness events so the initial re-sweep
		// cannot miss them.
		for _, v := range violations {
			if v.Event > 0 && v.Mode == cfg.Mode && v.Seed == cfg.Seed {
				cfg.Include = append(cfg.Include, v.Event)
			}
		}
		min, err := crash.Minimize(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: minimize: %v\n", err)
			fmt.Fprintf(&report, "minimize failed: %v\n", err)
		} else {
			var repro strings.Builder
			fmt.Fprintf(&repro, "minimal reproducer for %s: %d ops (%d runs): %s\n",
				vioJob.name, len(min.Ops), min.Runs, min.Violation.Msg)
			for i, op := range min.Ops {
				fmt.Fprintf(&repro, "  op %d: %v %s %s off=%d size=%d len=%d fsync=%v close=%v\n",
					i+1, op.Kind, op.Path, op.Path2, op.Off, op.Size, len(op.Data), op.Fsync, op.Close)
			}
			fmt.Print(repro.String())
			report.WriteString(repro.String())
		}
	}
	if *outPath != "" && (len(violations) > 0 || len(servedVios) > 0) {
		if err := os.WriteFile(*outPath, []byte(report.String()), 0644); err != nil {
			fmt.Fprintf(os.Stderr, "crashcheck: write %s: %v\n", *outPath, err)
		} else {
			fmt.Printf("violation report written to %s\n", *outPath)
		}
	}
	if len(violations) > 0 || len(servedVios) > 0 || failed || servedFailed {
		os.Exit(1)
	}
}
