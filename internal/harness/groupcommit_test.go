package harness

import (
	"testing"
)

// TestGroupCommitBatchedStrictlyCheaper is the acceptance gate for
// group commit on the fsync path: making N files durable through one
// batched fsync must issue strictly fewer journal commits AND
// strictly fewer pmem fences than N independent fsyncs, in both POSIX
// and strict modes.
func TestGroupCommitBatchedStrictlyCheaper(t *testing.T) {
	for _, kind := range []string{"splitfs-posix", "splitfs-strict"} {
		serial, err := RunGroupCommit(kind, 12, 16, 4096, false)
		if err != nil {
			t.Fatalf("%s serial: %v", kind, err)
		}
		batched, err := RunGroupCommit(kind, 12, 16, 4096, true)
		if err != nil {
			t.Fatalf("%s batched: %v", kind, err)
		}
		if serial.Commits == 0 {
			t.Fatalf("%s serial run issued no journal commits", kind)
		}
		if batched.Commits >= serial.Commits {
			t.Errorf("%s: batched commits %d not strictly fewer than serial %d",
				kind, batched.Commits, serial.Commits)
		}
		if batched.Fences >= serial.Fences {
			t.Errorf("%s: batched fences %d not strictly fewer than serial %d",
				kind, batched.Fences, serial.Fences)
		}
		t.Logf("%s: commits %d -> %d, fences %d -> %d", kind,
			serial.Commits, batched.Commits, serial.Fences, batched.Fences)
	}
}

// TestGroupCommitExperimentMetrics verifies the registered experiment
// runs and attaches the machine-readable metrics splitbench -json
// writes, with batched strictly below serial.
func TestGroupCommitExperimentMetrics(t *testing.T) {
	e, ok := Get("groupcommit")
	if !ok {
		t.Fatal("groupcommit experiment not registered")
	}
	tbl, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, kind := range []string{"splitfs-posix", "splitfs-strict"} {
		for _, name := range []string{"commits_per_1k_appends", "fences_per_fsync"} {
			s, b := metric(t, tbl, kind+"_serial_"+name), metric(t, tbl, kind+"_batched_"+name)
			if b >= s {
				t.Errorf("%s %s: batched %.3f not strictly below serial %.3f", kind, name, b, s)
			}
		}
	}
}
