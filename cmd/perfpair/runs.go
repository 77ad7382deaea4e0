package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// checkout writes revision rev of the repository at root into dst, a new
// directory, and returns the revision's short hash; rev "." copies the
// working tree instead and is named "worktree".
func checkout(root, rev, dst string) (string, error) {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return "", err
	}
	if rev == "." {
		return "worktree", copyWorktree(root, dst)
	}
	name, err := gitOut(root, "rev-parse", "--short", rev+"^{commit}")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", "archive", "--format=tar", name)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	untarErr := untar(out, dst)
	if untarErr != nil {
		cmd.Process.Kill() // it would block writing what untar no longer reads
		cmd.Wait()
		return "", untarErr
	}
	if err := cmd.Wait(); err != nil {
		return "", fmt.Errorf("git archive: %w: %s", err, stderr.Bytes())
	}
	return name, nil
}

// untar extracts a git archive stream into dst.
func untar(r io.Reader, dst string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dst, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
}

// copyWorktree copies the tracked files of the working tree, and the
// untracked ones .gitignore does not exclude, from root into dst.
func copyWorktree(root, dst string) error {
	list, err := gitOut(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, name := range strings.Split(list, "\x00") {
		if name == "" {
			continue
		}
		src, path := filepath.Join(root, name), filepath.Join(dst, name)
		fi, err := os.Lstat(src)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if fi.Mode()&os.ModeSymlink != 0 {
			target, err := os.Readlink(src)
			if err == nil {
				err = os.Symlink(target, path)
			}
			if err != nil {
				return err
			}
			continue
		}
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		err = writeFile(path, f, fi.Mode().Perm())
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitOut runs git in dir and returns its trimmed standard output.
func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return strings.TrimSpace(string(out)), nil
}

// benchSpec is what perfpair reads of BENCHMARK.json.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: which way is better, and the
// relative amount by which it may worsen before a change counts as a
// regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err == nil && len(s.EndToEnd) == 0 {
		err = errors.New("no end_to_end metrics")
	}
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// splitperfRun is the JSON line a splitperf run ends with.
type splitperfRun struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func (r splitperfRun) ok() bool { return r.Correct && r.Failed == 0 }

// parseSplitperf reads the last non-empty line of a splitperf run's
// output.
func parseSplitperf(out []byte) (splitperfRun, error) {
	var r splitperfRun
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Metrics == nil {
		return r, fmt.Errorf("no result line in splitperf's output (last line %q)", last)
	}
	return r, nil
}

// runSplitperfOnce runs the benchmark once in a checkout, as BENCHMARK.json
// declares it. A run that exits non-zero with a result line (an incorrect run)
// is returned for the caller to count as failed.
func runSplitperfOnce(dir, workload string, seed uint64, seconds float64) (splitperfRun, error) {
	cmd := exec.Command("bash", "cmd/splitperf/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	r, err := parseSplitperf(out)
	if err != nil {
		if runErr != nil {
			return r, fmt.Errorf("%w: %s", runErr, lastLines(stderr.String(), 5))
		}
		return r, err
	}
	return r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// values is metric name's value in each run, in order; NaN where a run
// did not report it.
func values(runs []splitperfRun, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		v[i] = m.Value
		if !ok {
			v[i] = math.NaN()
		}
	}
	return v
}

// reserveSeeds returns n seeds above every seed the ledger names and
// appends the range to it, with note, before any of them is run.
func reserveSeeds(ledger string, n int, note string) (uint64, error) {
	b, err := os.ReadFile(ledger)
	if err != nil {
		return 0, err
	}
	top, err := ledgerTop(string(b))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", ledger, err)
	}
	first := top + 1
	f, err := os.OpenFile(ledger, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	_, err = fmt.Fprintf(f, "%d-%d %s %s\n", first, first+uint64(n)-1, note, time.Now().UTC().Format("2006-01-02"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return first, err
}

// ledgerTop is the highest seed a ledger names. Each line that is not
// blank or a '#' comment starts with a seed or a range first-last.
func ledgerTop(ledger string) (uint64, error) {
	var top uint64
	sc := bufio.NewScanner(strings.NewReader(ledger))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		field, _, _ := strings.Cut(line, " ")
		lo, hi, isRange := strings.Cut(field, "-")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.ParseUint(lo, 10, 64)
		b, err2 := strconv.ParseUint(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return 0, fmt.Errorf("bad ledger line %q", line)
		}
		top = max(top, b)
	}
	return top, sc.Err()
}

// runBench builds benchPkg's test binary on each side and runs o.pairs
// alternating pairs of it, from the package directory.
func runBench(o options, sides [2]side) ([]row, bool, error) {
	var bins [2]string
	for k, s := range sides {
		bins[k] = filepath.Join(s.dir, "perfpair-bench.test")
		cmd := exec.Command("go", "test", "-c", "-o", bins[k], benchPkg)
		cmd.Dir = s.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, false, fmt.Errorf("%s: go test -c %s: %w: %s", s.name, benchPkg, err, out)
		}
	}
	var runs [2][]map[string]float64
	for i := 0; i < o.pairs; i++ {
		for _, k := range order(i%2 == 0) {
			cmd := exec.Command(bins[k], "-test.run", "^$", "-test.bench", o.bench, "-test.benchtime", benchTime,
				"-test.benchmem", "-test.count", "1", "-test.timeout", "30m")
			cmd.Dir = filepath.Join(sides[k].dir, benchPkg)
			out, err := cmd.CombinedOutput()
			if err != nil {
				return nil, false, fmt.Errorf("%s: %s: %w: %s", sides[k].name, o.bench, err, lastLines(string(out), 5))
			}
			runs[k] = append(runs[k], parseBench(out))
		}
		fmt.Fprintf(os.Stderr, "perfpair: bench pair %d/%d done\n", i+1, o.pairs)
	}
	keys := map[string]bool{}
	for _, side := range runs {
		for _, r := range side {
			for k := range r {
				keys[k] = true
			}
		}
	}
	var rows []row
	for _, key := range slices.Sorted(maps.Keys(keys)) {
		bench, unit, _ := strings.Cut(key, "\x00")
		m := metricSpec{Name: unit, Better: "lower", Bound: benchBound}
		if strings.HasSuffix(unit, "/s") {
			m.Better = "higher"
		}
		var v [2][]float64
		for k, side := range runs {
			for _, r := range side {
				x, ok := r[key]
				if !ok {
					x = math.NaN()
				}
				v[k] = append(v[k], x)
			}
		}
		rows = append(rows, judge(bench, m, v[0], v[1], false))
	}
	return rows, false, nil
}

// parseBench reads `go test -bench` output: every "Benchmark..." line's
// value-unit pairs, keyed by the benchmark's name (its -GOMAXPROCS
// suffix dropped) and the unit, joined by a NUL.
func parseBench(out []byte) map[string]float64 {
	vals := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for j := 2; j+1 < len(f); j += 2 {
			v, err := strconv.ParseFloat(f[j], 64)
			if err != nil {
				break
			}
			vals[name+"\x00"+f[j+1]] = v
		}
	}
	return vals
}
