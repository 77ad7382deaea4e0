package harness

import "testing"

// runPrepared runs a workload straight after preparing it.
func runPrepared(w *ConcurrentWorkload, err error) (ConcurrentResult, error) {
	if err != nil {
		return ConcurrentResult{}, err
	}
	return w.Run()
}

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
