package crash

import (
	"testing"

	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// TestServedDifferentialEquivalence is the service-transparency gate:
// the differential suite's traces, run through the lisafs-style session/RPC
// layer (served: wrapper, loopback transport) over all eight backends,
// must land byte-identical namespaces and contents to the direct
// ext4-dax reference — and therefore to every direct backend, which the
// plain differential suite already pins against the same reference.
func TestServedDifferentialEquivalence(t *testing.T) {
	kinds := []string{"ext4-dax"}
	for _, leases := range []bool{false, true} {
		for _, k := range stack.Kinds() {
			kinds = append(kinds, stack.Name(k, true, leases))
		}
	}
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"write", RandomOps(101, 25)},
		{"metadata", MetadataOps(707, 30)},
		{"async", AsyncOps(303, 25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Differential(kinds, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Mismatches {
				t.Errorf("served mismatch: %s", m)
			}
		})
	}
}

// TestServedEventStreamMatchesDirect verifies the loopback determinism
// claim the crash harness depends on: a single-session served run
// issues the exact persistence-event sequence of a direct run, so the
// device counters agree event for event.
func TestServedEventStreamMatchesDirect(t *testing.T) {
	ops := AsyncOps(42, 20)
	sys := compile(ops)

	run := func(kind string) (int64, int64) {
		b, err := stack.New(kind, stack.Small)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{fs: b.FS, handles: map[string]vfs.File{}}
		for i, sc := range sys {
			if err := r.apply(sc); err != nil {
				t.Fatalf("%s: syscall %d: %v", kind, i, err)
			}
		}
		return b.Dev.Stats().Fences, b.Dev.Stats().BytesWritten()
	}

	dFences, dBytes := run("splitfs-strict")
	sFences, sBytes := run("served:splitfs-strict")
	if dFences != sFences || dBytes != sBytes {
		t.Fatalf("served run diverged from direct: fences %d vs %d, bytes %d vs %d",
			dFences, sFences, dBytes, sBytes)
	}
	// The zero-copy plane must not perturb the stream either: a leased
	// write stores through the same backend file a direct caller uses,
	// and lease grants read metadata only.
	lFences, lBytes := run("served-lease:splitfs-strict")
	if dFences != lFences || dBytes != lBytes {
		t.Fatalf("served-lease run diverged from direct: fences %d vs %d, bytes %d vs %d",
			dFences, lFences, dBytes, lBytes)
	}
}
