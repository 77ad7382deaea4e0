package harness

import (
	"slices"
	"testing"
)

func TestConcurrentRunners(t *testing.T) {
	for _, kind := range []string{"ext4-dax", "splitfs-posix", "splitfs-strict"} {
		a, err := runPrepared(ConcurrentAppends(kind, 2, 64, 4096))
		if err != nil {
			t.Fatalf("%s appends: %v", kind, err)
		}
		if a.Ops != 128 || a.WallNs <= 0 || a.SimNs <= 0 {
			t.Fatalf("%s appends: implausible result %+v", kind, a)
		}
		r, err := runPrepared(ConcurrentReads(kind, 2, 64, 4096))
		if err != nil {
			t.Fatalf("%s reads: %v", kind, err)
		}
		if r.Ops != 128 || r.WallNs <= 0 {
			t.Fatalf("%s reads: implausible result %+v", kind, r)
		}
		w, err := runPrepared(ConcurrentWAL(kind, 2, 8))
		if err != nil {
			t.Fatalf("%s wal: %v", kind, err)
		}
		if w.Ops != 16 || w.WallNs <= 0 {
			t.Fatalf("%s wal: implausible result %+v", kind, w)
		}
	}
}

func TestSetMaxThreads(t *testing.T) {
	defer func() { threadCounts = []int{1, 2, 4} }()
	for _, c := range []struct {
		n    int
		want []int
	}{{8, []int{1, 2, 4, 8}}, {6, []int{1, 2, 4, 6}}, {1, []int{1}}} {
		SetMaxThreads(c.n)
		if !slices.Equal(threadCounts, c.want) {
			t.Fatalf("SetMaxThreads(%d): threadCounts = %v, want %v", c.n, threadCounts, c.want)
		}
	}
}
