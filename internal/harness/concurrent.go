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
// time baseline (see DESIGN.md). The root package's BenchmarkParallel*
// run these workloads, and cmd/perfpair -bench pairs them parent against
// change.

// ConcurrentResult is one measured concurrent run.
type ConcurrentResult struct {
	Ops    int64 // total operations across workers
	WallNs int64 // wall-clock elapsed time
	SimNs  int64 // simulated time charged by all workers together
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
		Ops:    int64(w.threads) * int64(w.opsPerThread),
		WallNs: time.Since(start).Nanoseconds(),
		SimNs:  w.e.Clock.Snapshot().Sub(before).Total,
	}, nil
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
