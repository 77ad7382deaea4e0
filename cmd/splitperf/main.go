// Command splitperf is the repository's performance benchmark: four
// closed-loop workloads measured in two time domains (simulated
// nanoseconds, which repeat exactly, and host time, which on a shared
// host does not), end to end and layer by layer. It measures
// from outside: counter deltas, a span decorator at the vfs boundaries,
// and timed calls into each layer's public functions. See README.md.
//
//	splitperf -workload append-fsync -seed 1            end-to-end metrics
//	splitperf -workload served-mix -seed 1 -trace 1     per-layer metrics, spans, probes
//	splitperf -probes                                   the layer probes alone
//	splitperf -selfcheck 10                             two alternating sets of 10 runs per workload
//
// BENCHMARK.json at the repository root describes it to the driver,
// which runs it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	// Load comes from one process on two cores whatever the host has.
	runtime.GOMAXPROCS(2)
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the op stream and the contents")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "nominal timed-phase length; scales the frozen step rates")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, spans, probes); 0: end-to-end metrics")
	probes := flag.Bool("probes", false, "run only the layer probes")
	selfcheck := flag.Int("selfcheck", 0, "K: run two alternating sets of K runs per workload and compare them with the bounds in ./BENCHMARK.json (the driver uses 10)")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.probes = cfg.trace
	cfg.setupReps = 5

	switch {
	case *probes:
		printMetrics(os.Stdout, runProbes())
	case *selfcheck > 0:
		ok, err := runSelfcheck(os.Stdout, *selfcheck, cfg.seconds, "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		cfg.traceOut = fmt.Sprintf(".bench_build/splitperf/trace-%s-%d.jsonl", cfg.workload, cfg.seed)
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splitperf:", err)
	os.Exit(2)
}

// result is what one run reports. Its JSON form is the driver's
// contract; the rest is for people.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []metric
	also      []metric // printed for people, not reported
	header    []string
	failure   error     // first failed op or verification mismatch
	measured  *measured // everything behind Metrics
}

func (r *result) print(w *os.File) {
	for _, h := range r.header {
		fmt.Fprintln(w, h)
	}
	if r.failure != nil {
		fmt.Fprintln(w, "FAILED:", r.failure)
	}
	printMetrics(w, r.Metrics)
	printMetrics(w, r.also)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
	if err != nil {
		fatal(err) // a NaN metric: a bug in this program
	}
	fmt.Fprintln(w, string(line))
}

func printMetrics(w *os.File, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-36s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

// run is one benchmark run: set-up (repeated), timed phase, verification.
func run(cfg config) (*result, error) {
	m := &measured{cfg: cfg}

	var w workload
	for rep := 0; rep < cfg.setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("set-up %d: close: %w", rep, err)
			}
			w = nil
		}
		// Hand the previous instance's device back to the OS: every
		// set-up then starts on untouched pages, as the first one does,
		// and peak RSS counts one instance.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	m.clients, m.layers = w.clients(), w.layers()
	refBuf := newRefBuf()
	m.refSpinMs[0], m.refMemcpyMs[0] = hostRefs(refBuf)

	runtime.GC()
	m.before = takeSnapshot(m.layers)
	// The step rates were frozen so that a run normally ends within its
	// nominal length; one on a host that is far slower is cut at a round
	// boundary, and says so, rather than run the driver out of its time
	// budget.
	limit := time.Duration(max(cfg.seconds*1.25, cfg.seconds+5) * float64(time.Second))
	var wall time.Duration
	m.rounds, wall = runTimed(m.clients, cfg.trace, limit)
	m.after = takeSnapshot(m.layers)
	m.wall, m.truncated = wall.Seconds(), len(m.rounds) < nRounds
	m.peakRSSMB = float64(rusage().Maxrss) / 1024
	m.memoryMB = float64(m.layers.ufs.MemoryUsage()) / (1 << 20)
	m.refSpinMs[1], m.refMemcpyMs[1] = hostRefs(refBuf)

	res := &result{Attempted: m.calls(), Failed: m.failed(), measured: m}
	for _, c := range m.clients {
		if c.err != nil && res.failure == nil {
			res.failure = c.err
		}
	}
	if res.failure == nil {
		res.failure = w.verify()
	}
	if af, ok := w.(*appendFsync); ok && res.failure == nil {
		m.recoverHostMs, m.recoverSimUs, res.failure = af.crashCheck(cfg.seed)
	}
	res.Correct = res.failure == nil && res.Failed == 0
	if err := w.close(); err != nil && res.failure == nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	if cfg.probes {
		m.probes = runProbes()
	}
	if cfg.trace {
		if tr := m.layers.tr; tr != nil {
			m.link = tr.link()
			if err := tr.write(cfg.traceOut, m.link); err != nil {
				return nil, err
			}
		}
		var err error
		if res.Metrics, err = m.perLayer(); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = m.endToEnd()
		// For people: where the simulated time and the PM traffic went,
		// which needs no tracing. Not part of the JSON.
		var err error
		if res.also, err = m.counters(); err != nil {
			return nil, err
		}
	}
	res.header = m.header()
	return res, nil
}

// header says what ran and on what.
func (m *measured) header() []string {
	cfg := m.cfg
	spans := 0
	if tr := m.layers.tr; tr != nil {
		for _, s := range tr.sinks {
			spans += len(s.spans)
		}
	}
	h := []string{
		fmt.Sprintf("splitperf workload=%s seed=%d seconds=%g trace=%t", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("host nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("ops=%d (vfs calls) clients=%d timed_wall_s=%.3f truncated=%t op_stream_hash=%016x",
			m.calls(), len(m.clients), m.wall, m.truncated, m.opStreamHash()),
		fmt.Sprintf("samples: latency=%d rounds=%d setups=%d", len(m.plainLatencies()), len(m.rounds), len(m.setups)),
	}
	if cfg.trace {
		h = append(h, fmt.Sprintf("spans=%d written to %s", spans, cfg.traceOut))
	}
	return h
}
