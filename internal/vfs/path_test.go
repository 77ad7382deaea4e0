package vfs

import (
	"slices"
	"strings"
	"testing"

	"splitfs/internal/race"
)

// splitOracle is SplitPath as it was before CleanPath and SplitDir got
// their no-allocation path for clean input: split on "/", drop empty
// and "." components, pop on "..". FuzzCleanPath holds the three
// functions to it.
func splitOracle(p string) []string {
	var out []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

func cleanOracle(p string) string { return "/" + strings.Join(splitOracle(p), "/") }

func splitDirOracle(p string) (dir, base string) {
	parts := splitOracle(p)
	if len(parts) == 0 {
		return "/", ""
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/"), parts[len(parts)-1]
}

// FuzzCleanPath checks CleanPath, SplitPath and SplitDir against the
// split-and-join oracle on every input; the committed corpus under
// testdata/fuzz/FuzzCleanPath holds the edge shapes.
func FuzzCleanPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := CleanPath(p), cleanOracle(p); got != want {
			t.Fatalf("CleanPath(%q) = %q, want %q", p, got, want)
		}
		if got, want := SplitPath(p), splitOracle(p); !slices.Equal(got, want) {
			t.Fatalf("SplitPath(%q) = %q, want %q", p, got, want)
		}
		dir, base := SplitDir(p)
		if wd, wb := splitDirOracle(p); dir != wd || base != wb {
			t.Fatalf("SplitDir(%q) = (%q, %q), want (%q, %q)", p, dir, base, wd, wb)
		}
	})
}

// TestCleanPathAllocations pins the fast path: a clean path costs
// CleanPath and SplitDir nothing.
func TestCleanPathAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sink string
	for _, p := range []string{"/", "/a", "/t0/f12", "/a/b/c.d/..e"} {
		if n := testing.AllocsPerRun(100, func() {
			sink = CleanPath(p)
			sink, _ = SplitDir(p)
		}); n != 0 {
			t.Errorf("CleanPath+SplitDir(%q): %v allocations, want 0", p, n)
		}
	}
	_ = sink
}
