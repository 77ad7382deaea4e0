// Concurrent-mode throughput is measured in wall-clock time across
// worker goroutines; both are deliberate here (see below).
//
// +determinism:wallclock
// +determinism:concurrent

package harness

import (
	"fmt"
	"sync"
	"time"

	"splitfs/internal/apps/waldb"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// Concurrent mode: N worker goroutines drive one file-system instance at
// once, each over its own files — the multi-threaded deployment of §3.5.
//
// The simulated clock is a single global tally and cannot express
// parallel elapsed time, so concurrent-mode results are wall-clock
// aggregate throughput: they measure how well the lock hierarchy (sharded
// PM device, per-file U-Split locks, per-inode K-Split locks) lets
// independent operations overlap. Meaningful scaling needs GOMAXPROCS >=
// threads; single-threaded runs of the same loops remain the simulated-
// time baseline (see DESIGN.md). Run `splitbench -threads N scaling` to
// sweep.

func init() {
	register("scaling", "Aggregate wall-clock throughput vs worker threads (concurrent mode)", scalingExp)
}

// threadCounts is the sweep used by the scaling experiment; see
// SetMaxThreads.
var threadCounts = []int{1, 2, 4}

// SetMaxThreads reconfigures the scaling sweep to powers of two up to and
// including n (cmd/splitbench's -threads flag).
func SetMaxThreads(n int) {
	if n < 1 {
		n = 1
	}
	var counts []int
	for t := 1; t < n; t *= 2 {
		counts = append(counts, t)
	}
	threadCounts = append(counts, n)
}

// ConcurrentResult is one measured concurrent run.
type ConcurrentResult struct {
	Threads int
	Ops     int64 // total operations across workers
	WallNs  int64 // wall-clock elapsed time
	SimNs   int64 // simulated time charged by all workers together
}

// WallKops is aggregate wall-clock throughput in Kops/s.
func (r ConcurrentResult) WallKops() float64 { return kops(r.Ops, r.WallNs) }

// ConcurrentWorkload is a concurrent-mode run with its set-up done: a
// fresh file-system instance, pre-filled where the workload needs it.
// Keeping construction apart from Run lets a testing.B stop its timer
// around the former.
type ConcurrentWorkload struct {
	e                     *stack.Stack
	threads, opsPerThread int
	fn                    func(worker int) error
}

// Run spawns the workers over fn (worker index) and measures the
// aggregate.
func (w *ConcurrentWorkload) Run() (ConcurrentResult, error) {
	before := w.e.Clock.Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, w.threads)
	for g := 0; g < w.threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- w.fn(g)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return ConcurrentResult{}, err
		}
	}
	return ConcurrentResult{
		Threads: w.threads,
		Ops:     int64(w.threads) * int64(w.opsPerThread),
		WallNs:  time.Since(start).Nanoseconds(),
		SimNs:   w.e.Clock.Snapshot().Sub(before).Total,
	}, nil
}

// runPrepared runs a workload straight after preparing it.
func runPrepared(w *ConcurrentWorkload, err error) (ConcurrentResult, error) {
	if err != nil {
		return ConcurrentResult{}, err
	}
	return w.Run()
}

// payload returns n bytes drawn from seed. The wall-clock workloads store
// it rather than zeros: the device backs no frame for a zero block, so a
// zero payload would time the device skipping its work.
func payload(n int, seed uint64) []byte {
	rng := sim.NewRNG(seed)
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

// ConcurrentAppends prepares threads workers appending blockBytes blocks
// to distinct files (fsync every 16 appends) on a fresh instance of kind.
func ConcurrentAppends(kind string, threads, opsPerThread, blockBytes int) (*ConcurrentWorkload, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return nil, err
	}
	return &ConcurrentWorkload{e, threads, opsPerThread, func(g int) error {
		f, err := vfs.Create(e.FS, fmt.Sprintf("/app%02d", g))
		if err != nil {
			return err
		}
		defer f.Close()
		blk := payload(blockBytes, uint64(g)+1)
		for i := 0; i < opsPerThread; i++ {
			if _, err := f.Write(blk); err != nil {
				return err
			}
			if i%16 == 15 {
				if err := f.Sync(); err != nil {
					return err
				}
			}
		}
		return f.Sync()
	}}, nil
}

// ConcurrentReads prepares threads workers reading blockBytes blocks from
// distinct pre-written files.
func ConcurrentReads(kind string, threads, opsPerThread, blockBytes int) (*ConcurrentWorkload, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return nil, err
	}
	// Per-worker file size shrinks at extreme thread counts so the
	// pre-fill never outgrows the device (cap: half of appDev total).
	fileBlocks := min(512, max(16, int(appDev/2/sim.BlockSize)/threads))
	for g := 0; g < threads; g++ {
		f, err := vfs.Create(e.FS, fmt.Sprintf("/rd%02d", g))
		if err != nil {
			return nil, err
		}
		blk := payload(blockBytes, uint64(g)+1)
		for i := 0; i < fileBlocks; i++ {
			if _, err := f.Write(blk); err != nil {
				return nil, err
			}
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return &ConcurrentWorkload{e, threads, opsPerThread, func(g int) error {
		f, err := vfs.Open(e.FS, fmt.Sprintf("/rd%02d", g))
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, blockBytes)
		for i := 0; i < opsPerThread; i++ {
			off := int64(i*2647%fileBlocks) * int64(blockBytes)
			if _, err := f.ReadAt(buf, off); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// ConcurrentWAL prepares threads workers each committing transactions to
// their own waldb database (the §5.2 SQLite-WAL app pattern) on one
// shared instance of kind.
func ConcurrentWAL(kind string, threads, txPerThread int) (*ConcurrentWorkload, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return nil, err
	}
	return &ConcurrentWorkload{e, threads, txPerThread, func(g int) error {
		db, err := waldb.Open(e.FS, waldb.Options{Path: fmt.Sprintf("/wal%02d.db", g)})
		if err != nil {
			return err
		}
		defer db.Close()
		page := make([]byte, waldb.PageSize)
		for i := 0; i < txPerThread; i++ {
			if err := db.Begin(); err != nil {
				return err
			}
			for p := 0; p < 4; p++ {
				if err := db.WritePage(uint32(i*4+p)%256+1, page); err != nil {
					return err
				}
			}
			if err := db.Commit(); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// scalingExp sweeps worker threads over the append, read, and WAL-commit
// workloads on ext4 DAX and SplitFS-POSIX. The speedup column is
// aggregate wall-clock throughput relative to the same workload at one
// thread.
func scalingExp() (*Table, error) {
	t := &Table{
		ID:    "scaling",
		Title: "Concurrent-mode aggregate throughput (wall clock)",
		Note: fmt.Sprintf("threads swept %v (splitbench -threads N); wall-clock scaling needs GOMAXPROCS >= threads — "+
			"speedup is relative to the 1-thread run of the same workload", threadCounts),
		Headers: []string{"File system", "Threads",
			"4K appends (Kops/s)", "x", "4K reads (Kops/s)", "x", "WAL commits (Kops/s)", "x"},
	}
	const ops = 2048
	for _, kind := range []string{"ext4-dax", "splitfs-posix"} {
		var base [3]float64
		for ti, threads := range threadCounts {
			// At least one op per worker, so an extreme -threads value
			// degrades to more total ops instead of a meaningless 0-op run.
			a, err := runPrepared(ConcurrentAppends(kind, threads, max(1, ops/threads), sim.BlockSize))
			if err != nil {
				return nil, fmt.Errorf("%s appends x%d: %w", kind, threads, err)
			}
			r, err := runPrepared(ConcurrentReads(kind, threads, max(1, ops/threads), sim.BlockSize))
			if err != nil {
				return nil, fmt.Errorf("%s reads x%d: %w", kind, threads, err)
			}
			w, err := runPrepared(ConcurrentWAL(kind, threads, max(1, 256/threads)))
			if err != nil {
				return nil, fmt.Errorf("%s wal x%d: %w", kind, threads, err)
			}
			cur := [3]float64{a.WallKops(), r.WallKops(), w.WallKops()}
			if ti == 0 {
				base = cur
			}
			rel := func(i int) string {
				if base[i] == 0 {
					return "-"
				}
				return xf(cur[i] / base[i])
			}
			t.Rows = append(t.Rows, []string{
				kind, fmt.Sprint(threads),
				f1(cur[0]), rel(0), f1(cur[1]), rel(1), f1(cur[2]), rel(2),
			})
			for i, wl := range []string{"appends", "reads", "wal_commits"} {
				t.AddMetric(fmt.Sprintf("%s_%s_t%d", kind, wl, threads), cur[i], "kops/s-wall")
			}
		}
	}
	return t, nil
}
