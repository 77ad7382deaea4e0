package crash

import (
	"testing"

	"splitfs/internal/obs"
	"splitfs/internal/stack"
)

// TestDifferentialEquivalence feeds generated traces from all three
// workload generators through every backend, and through the host
// kernel's file system (hostFS) as an outside reference, and requires
// identical final namespaces and file contents. Error classes are not
// compared: every generated op meets its preconditions.
func TestDifferentialEquivalence(t *testing.T) {
	cases := []struct {
		name string
		ops  []Op
	}{
		{"write", RandomOps(91, 30)},
		{"meta", MetadataOps(203, 30)},
		{"async", AsyncOps(119, 30)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := differential(append(stack.Kinds(), "hostfs"), tc.ops, func(kind string) (*stack.Stack, error) {
				if kind == "hostfs" {
					return &stack.Stack{FS: newHostFS(t)}, nil
				}
				return newStack(kind)
			})
			if err != nil {
				t.Fatalf("differential: %v", err)
			}
			if res.Syscalls == 0 {
				t.Fatal("empty trace")
			}
			for _, m := range res.Mismatches {
				t.Errorf("mismatch: %s", m)
			}
		})
	}
}

// TestDifferentialTraceGolden pins the compiled differential trace for a
// fixed seed: the suite's value depends on every run of a given seed
// exercising the same trace, so generator or compiler drift must be a
// conscious decision. If this fails after an intentional change to
// RandomOps/MetadataOps/AsyncOps or compile, update the constants from
// the failure message.
func TestDifferentialTraceGolden(t *testing.T) {
	golden := []struct {
		name     string
		ops      []Op
		syscalls int
		hash     uint64
	}{
		{"write-seed91", RandomOps(91, 30), 39, 0x8391ecd095a546f9},
		{"meta-seed203", MetadataOps(203, 30), 40, 0x98701796be629d3},
		{"async-seed119", AsyncOps(119, 30), 41, 0x14d52d344ede97e0},
	}
	for _, g := range golden {
		sys := compile(g.ops)
		h := obs.FNV1a(renderTrace(sys))
		if len(sys) != g.syscalls || h != g.hash {
			t.Errorf("%s: trace changed: syscalls=%d hash=%#x (pinned %d/%#x)",
				g.name, len(sys), h, g.syscalls, g.hash)
		}
	}
}
