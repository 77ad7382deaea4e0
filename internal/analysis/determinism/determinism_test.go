package determinism_test

import (
	"testing"

	"splitfs/internal/analysis/analysistest"
	"splitfs/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.Testdata(t), determinism.Analyzer,
		"splitfs/internal/pmem", "dettest", "detuser", "server")
}

func TestDeterministicPredicate(t *testing.T) {
	for path, want := range map[string]bool{
		"splitfs/internal/pmem":                 true,
		"splitfs/internal/crash":                true,
		"splitfs/internal/harness":              true,
		"splitfs/internal/wl":                   true,
		"splitfs/internal/apps":                 true,
		"splitfs/internal/splitfs":              true,
		"splitfs/internal/server":               false,
		"splitfs/internal/benchfmt":             false,
		"splitfs/internal/analysis":             false,
		"splitfs/internal/analysis/determinism": false,
		"splitfs/cmd/splitfs-bench":             false,
	} {
		if got := determinism.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
