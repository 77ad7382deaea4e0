package harness

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"splitfs/internal/stack"
)

// TestObsSnapshotChild is the re-exec target of the two-process
// determinism test: it runs the instrumented loopback stream on every
// gated backend and prints one "hash <kind> <hex>" line per backend.
// Inert unless the parent sets the env var.
func TestObsSnapshotChild(t *testing.T) {
	if os.Getenv("SPLITFS_OBS_DET_CHILD") != "1" {
		t.Skip("re-exec child of TestObsSnapshotTwoProcesses")
	}
	for _, kind := range serverDetBackends {
		snap, _, err := obsStreamRun(stack.Name(kind, true, false), true)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		fmt.Printf("hash %s %016x\n", kind, snap.Hash())
	}
}

// TestObsSnapshotTwoProcesses is the determinism proof the obs plane
// advertises: two FRESH processes running the same instrumented
// workload must produce identical metric snapshots — not just equal in
// one address space (where a shared seed or package-level state could
// mask nondeterminism), but across processes with independent runtime
// schedules and ASLR'd maps. It re-execs the test binary twice and
// compares the per-backend snapshot hashes, then checks them against an
// in-process run of this process too.
func TestObsSnapshotTwoProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary twice")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	runChild := func() string {
		cmd := exec.Command(exe, "-test.run", "TestObsSnapshotChild$", "-test.v")
		cmd.Env = append(os.Environ(), "SPLITFS_OBS_DET_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child run: %v\n%s", err, out)
		}
		var hashes []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "hash ") {
				hashes = append(hashes, line)
			}
		}
		if len(hashes) != len(serverDetBackends) {
			t.Fatalf("child printed %d hash lines, want %d:\n%s", len(hashes), len(serverDetBackends), out)
		}
		return strings.Join(hashes, "\n")
	}
	a := runChild()
	b := runChild()
	if a != b {
		t.Fatalf("snapshot hashes differ across fresh processes:\nrun 1:\n%s\nrun 2:\n%s", a, b)
	}
	var local []string
	for _, kind := range serverDetBackends {
		snap, _, err := obsStreamRun(stack.Name(kind, true, false), true)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		local = append(local, fmt.Sprintf("hash %s %016x", kind, snap.Hash()))
	}
	if got := strings.Join(local, "\n"); got != a {
		t.Fatalf("in-process snapshot hashes differ from child processes:\nlocal:\n%s\nchild:\n%s", got, a)
	}
}

// TestObsExperiment runs the full experiment — which self-asserts zero
// drift and zero instrumentation overhead — and sanity-checks the rows.
func TestObsExperiment(t *testing.T) {
	tbl, err := obsExp()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(serverDetBackends) {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), len(serverDetBackends))
	}
	if len(tbl.Metrics) == 0 {
		t.Fatal("no metrics emitted")
	}
	for _, m := range tbl.Metrics {
		if m.Unit == "" {
			t.Fatalf("metric %s has no unit", m.Name)
		}
	}
	// The served stream must have flowed through the service layer: the
	// snapshot's server/ops row is the dispatched request count.
	if !slices.ContainsFunc(tbl.Metrics, func(m Metric) bool {
		return strings.HasSuffix(m.Name, "/server/ops") && m.Value > float64(serverStreamOps)
	}) {
		t.Fatalf("no backend reported server/ops > %d", serverStreamOps)
	}
}
