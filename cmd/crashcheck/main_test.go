package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"splitfs/internal/crash"
)

// TestMain runs the command itself when a test re-executes this binary
// with CRASHCHECK_MAIN set.
func TestMain(m *testing.M) {
	if os.Getenv("CRASHCHECK_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsRejected: a flag value the command cannot run with exits with
// status 2 and says why. -workers 0 once started no worker and blocked
// forever handing out the first job, so each run is bounded.
func TestFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "need at least one worker"},
		{[]string{"-workers", "-3"}, "need at least one worker"},
		{[]string{"-kind", "nope"}, "unknown kind"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-seeds", "1", "-ops", "3", "-sample", "2"}, c.args...)...)
		cmd.Env = append(os.Environ(), "CRASHCHECK_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("%v: err = %v, want exit status 2 and %q\n%s", c.args, err, c.want, out)
		}
	}
}

// TestMemProfile: -memprofile writes the allocs profile, a gzip stream
// pprof reads, after a run whose output is what it is without the flag.
func TestMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.prof")
	run := func(extra ...string) []byte {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-kind", "splitfs-strict", "-seeds", "1", "-ops", "4", "-sample", "3"}, extra...)...)
		cmd.Env = append(os.Environ(), "CRASHCHECK_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, out)
		}
		return out
	}
	plain, profiled := run(), run("-memprofile", path)
	if !bytes.Equal(plain, profiled) {
		t.Errorf("the output differs with -memprofile:\n%s\nwithout it:\n%s", profiled, plain)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("the profile is not a gzip stream: %v", err)
	}
	if n, err := io.Copy(io.Discard, z); err != nil || n == 0 {
		t.Fatalf("the profile's gzip stream holds %d bytes (%v)", n, err)
	}
}

// TestPipelineMinimizesBothKinds drives a direct and a served sweep,
// both with every fence skipped, through the one pool and the one
// report path with minimization on: the report holds both families'
// violations and both reproducers, the served one labelled by tenant.
func TestPipelineMinimizesBothKinds(t *testing.T) {
	skip := func(int64) bool { return true }
	jobs := []job{
		directJob("strict/write/seed3", crash.ExploreConfig{Kind: "splitfs-strict",
			Ops: crash.RandomOps(3, 10), Seed: 3, Sample: 24, SkipFence: skip}),
		servedJob(crash.ServedExploreConfig{Sample: 12, ServedCampaign: crash.ServedCampaign{
			Kind: "splitfs-strict", Tenants: 2, OpsPerTenant: 6, Seed: 31, SkipFence: skip}}),
	}
	results, failed := sweep(jobs, 2, false)
	if failed {
		t.Fatal("a sweep failed")
	}
	report := buildReport(jobs, results, true, 24)
	for _, want := range []string{
		"\nVIOLATION kind=splitfs-strict seed=3 ",
		"\nSERVED VIOLATION kind=splitfs-strict seed=31 ",
		"\nminimal reproducer for strict/write/seed3: ",
		"\nminimal reproducer for served-crash strict/seed31: ",
	} {
		if !strings.Contains("\n"+report, want) {
			t.Errorf("report lacks %q:\n%s", want[1:], report)
		}
	}
	direct, served, _ := strings.Cut(report[strings.Index(report, "minimal reproducer"):], "minimal reproducer for served-crash")
	if !regexp.MustCompile(`(?m)^  op 1: `).MatchString(direct) || strings.Contains(direct, "tenant") {
		t.Errorf("direct reproducer is not one unlabelled op list:\n%s", direct)
	}
	if !regexp.MustCompile(`(?m)^  tenant \d op 1: `).MatchString(served) {
		t.Errorf("served reproducer does not label its ops by tenant:\n%s", served)
	}
}
