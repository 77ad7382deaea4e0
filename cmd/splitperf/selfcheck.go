package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the self-check needs.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles are Python's statistics.quantiles(v, n=4), which is what
// the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (len(d) + 1) / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*(len(d)+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// hostTimes are the unbounded host-time metrics whose spread the
// self-check also shows, for the record of why they carry no bound.
var hostTimes = []string{"harness.host_ops_per_s", "harness.quiet_ops_per_s", "harness.host_p50_us", "harness.host_cpu_us_per_op"}

// runOnce runs one workload in a fresh process and returns its
// end-to-end metrics and hostTimes.
func runOnce(exe, workload string, seed int, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect", workload, seed)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	for _, line := range lines {
		if f := bytes.Fields(line); len(f) == 3 && slices.Contains(hostTimes, string(f[0])) {
			if vals[string(f[0])], err = strconv.ParseFloat(string(f[1]), 64); err != nil {
				return nil, fmt.Errorf("%s seed %d: %s: %w", workload, seed, line, err)
			}
		}
	}
	return vals, nil
}

// runSelfcheck runs two sets of k runs per workload, alternating
// A/B/A/B so that slow host drift lands on both sets, and judges them
// as the driver does: within a set, the quartile distance of every
// end-to-end metric but setup_s must stay within the metric's bound,
// and set B's median may not be worse than set A's by more than it.
func runSelfcheck(w io.Writer, k int, seconds float64, benchPath string) (bool, error) {
	bench, err := readBenchmarkJSON(benchPath)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// values[workload][metric][set] are the k values of one set.
	values := map[string]map[string]*[2][]float64{}
	for seed := 1; seed <= k; seed++ {
		for _, wl := range bench.Workloads {
			for set := 0; set < 2; set++ {
				vals, err := runOnce(exe, wl.Name, seed, seconds)
				if err != nil {
					return false, err
				}
				if values[wl.Name] == nil {
					values[wl.Name] = map[string]*[2][]float64{}
				}
				for name, v := range vals {
					if values[wl.Name][name] == nil {
						values[wl.Name][name] = new([2][]float64)
					}
					values[wl.Name][name][set] = append(values[wl.Name][name][set], v)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d set %c done\n", wl.Name, seed, 'A'+set)
			}
		}
	}
	ok := true
	for _, wl := range bench.Workloads {
		fmt.Fprintf(w, "\n%s: two sets of %d runs (seeds 1..%d), %g s each\n", wl.Name, k, k, seconds)
		fmt.Fprintf(w, "%-26s %14s %8s %14s %8s %9s %6s  %s\n", "metric", "median A", "IQR A", "median B", "IQR B", "B worse", "bound", "")
		row := func(name string, higher bool) (med, iqr [2]float64, worse float64, err error) {
			sets := values[wl.Name][name]
			if sets == nil {
				return med, iqr, 0, fmt.Errorf("%s: no metric %s", wl.Name, name)
			}
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s])
				med[s], iqr[s] = q2, (q3-q1)/q2
			}
			worse = (med[1] - med[0]) / med[0]
			if higher {
				worse = -worse
			}
			return med, iqr, worse, nil
		}
		const format = "%-26s %14.6g %7.2f%% %14.6g %7.2f%% %+8.2f%% %6s  %s\n"
		for _, m := range bench.EndToEnd {
			med, iqr, worse, err := row(m.Name, m.Better == "higher")
			if err != nil {
				return false, err
			}
			verdict := "ok"
			if worse > m.Bound || m.Name != "setup_s" && max(iqr[0], iqr[1]) > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, format, m.Name, med[0], 100*iqr[0], med[1], 100*iqr[1], 100*worse, fmt.Sprintf("%.1f%%", 100*m.Bound), verdict)
		}
		for _, name := range hostTimes {
			med, iqr, worse, err := row(name, strings.HasSuffix(name, "_per_s"))
			if err != nil {
				return false, err
			}
			fmt.Fprintf(w, format, name, med[0], 100*iqr[0], med[1], 100*iqr[1], 100*worse, "none", "")
		}
	}
	return ok, nil
}
