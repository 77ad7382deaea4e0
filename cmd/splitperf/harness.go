package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
)

// nRounds is how many equal step-count rounds the timed phase is cut
// into. Every client runs its share of a round and the round ends when
// the last one has; wall time, CPU time and calls are taken per round.
// The rounds show how even a run was (harness.window_cv), give the
// quiet-quartile throughput beside the mean, and let a traced run
// alternate traced and pass-through rounds.
const nRounds = 100

// config is one run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64 // nominal timed-phase length; scales the frozen step rates
	trace     bool
	probes    bool   // also run the layer probes (every traced benchmark run does)
	setupReps int    // the set-up is repeated and setup_s is the median
	traceOut  string // JSONL path of a traced run
}

// workload is one of the four benchmark workloads, set up and warmed.
type workload interface {
	clients() []*client
	layers() layers
	// verify checks final contents and namespace against what the seed
	// and the clients' last-writer tables imply. Outside the timer.
	verify() error
	close() error
}

// layers are the handles whose public counters a run diffs.
type layers struct {
	dev     *pmem.Device
	clk     *sim.Clock
	kfs     *ext4dax.FS
	ufs     *splitfs.FS
	clients []*server.Client // served-mix only
	tr      *tracer          // nil when untraced
}

// client is one closed-loop load generator: it issues its next call
// only after the previous one returned.
type client struct {
	steps  int64  // composite operations in the timed phase
	step   func() // issues the next composite operation
	sinks  []*sink
	calls  int64 // vfs calls issued (the benchmark's "ops")
	failed int64
	err    error  // first failure
	hash   uint64 // op-stream hash: every call's kind and arguments
	wbytes int64  // payload bytes the driver asked to write

	lat     []int64 // latency samples of the critical op, ns; preallocated
	every   int     // sample every k-th critical op
	skip    int
	latMark [nRounds]int // len(lat) at the end of each round
}

// note accounts one call about to be issued.
func (c *client) note(op uint8, a, b int64) {
	c.calls++
	c.hash = (c.hash ^ (uint64(op) | uint64(a)<<8 ^ uint64(b)<<36)) * 0x100000001b3
}

func (c *client) check(err error) {
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
	}
}

// checkIO also counts a short read or write as a failure.
func (c *client) checkIO(n, want int, err error) {
	if err == nil && n != want {
		err = fmt.Errorf("short I/O: %d of %d bytes", n, want)
	}
	c.check(err)
}

// sample reports whether the critical op about to run should be timed.
func (c *client) sample() bool {
	if c.skip--; c.skip >= 0 {
		return false
	}
	c.skip = c.every - 1
	return true
}

func (c *client) observe(t0 time.Time) {
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, int64(time.Since(t0)))
	}
}

// initSampling preallocates the latency buffer for about n critical ops.
func (c *client) initSampling(n int64, every int) {
	c.every = every
	c.lat = make([]int64, 0, n/int64(every)+1024)
}

// warm runs n composite operations outside the timer and then forgets
// what they measured (the last-writer tables keep them).
func (c *client) warm(n int64) error {
	for i := int64(0); i < n; i++ {
		c.step()
	}
	if c.err != nil {
		return fmt.Errorf("warm-up: %w", c.err)
	}
	c.calls, c.wbytes, c.lat = 0, 0, c.lat[:0]
	return nil
}

// round is what one round of the timed phase measured, over all clients.
type round struct {
	wallNs, cpuNs, calls int64
}

// runTimed drives the clients through the rounds, one goroutine per
// client per round, and stops after the round in which limit passes (a
// host far slower than the one the step rates were frozen on must not
// run the driver out of its time budget). In a traced run the even
// rounds are traced and the odd ones pass through.
func runTimed(cs []*client, traced bool, limit time.Duration) (rounds []round, wall time.Duration) {
	rounds = make([]round, 0, nRounds)
	total := func() (n int64) {
		for _, c := range cs {
			n += c.calls
		}
		return n
	}
	start := time.Now()
	for r := 0; r < nRounds; r++ {
		for _, c := range cs {
			for _, s := range c.sinks {
				s.on.Store(traced && r%2 == 0)
			}
		}
		calls0, cpu0, t0 := total(), cpuTime(), time.Now()
		var wg sync.WaitGroup
		for _, c := range cs {
			n := c.steps*int64(r+1)/nRounds - c.steps*int64(r)/nRounds
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < n; i++ {
					c.step()
				}
				c.latMark[r] = len(c.lat)
			}()
		}
		wg.Wait()
		rounds = append(rounds, round{wallNs: int64(time.Since(t0)), cpuNs: int64(cpuTime() - cpu0), calls: total() - calls0})
		if time.Since(start) > limit {
			break
		}
	}
	for _, c := range cs {
		for _, s := range c.sinks {
			s.on.Store(false)
		}
	}
	return rounds, time.Since(start)
}

// snapshot is every counter a run diffs around its timed phase.
type snapshot struct {
	sim                sim.Breakdown
	pm                 pmem.Stats
	src                [3]pmem.SourceStats
	kfs                ext4dax.Stats
	ufs                splitfs.Stats
	created, reclaimed int
	cli                server.ClientStats
	mallocs, allocated uint64
	involCtx           int64
}

func takeSnapshot(l layers) snapshot {
	s := snapshot{
		sim:       l.clk.Snapshot(),
		pm:        l.dev.Stats(),
		kfs:       l.kfs.Stats(),
		ufs:       l.ufs.Stats(),
		created:   l.ufs.StagingFilesCreated(),
		reclaimed: l.ufs.StagingFilesReclaimed(),
	}
	for i, src := range []pmem.EventSource{pmem.SrcForeground, pmem.SrcRelinkWorker, pmem.SrcReclaim} {
		s.src[i] = l.dev.SourceStats(src)
	}
	for _, c := range l.clients {
		cs := c.Stats()
		s.cli.LeaseGrants += cs.LeaseGrants
		s.cli.LeaseRevocations += cs.LeaseRevocations
		s.cli.LeaseFallbacks += cs.LeaseFallbacks
		s.cli.LeasedReadBytes += cs.LeasedReadBytes
		s.cli.LeasedWriteBytes += cs.LeasedWriteBytes
		s.cli.WireReadBytes += cs.WireReadBytes
		s.cli.WireWriteBytes += cs.WireWriteBytes
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocated = ms.Mallocs, ms.TotalAlloc
	s.involCtx = rusage().Nivcsw
	return s
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median sorts v in place.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile sorts v in place and interpolates between the two nearest
// ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

// The reference loops measure the host, not the repository: a fixed ALU
// loop and fixed random 4 KB copies over 64 MB, before and after the
// timed phase. They label a disturbed run (CPU steal moves the first,
// neighbours' memory traffic the second) and are never used to
// normalise anything.
const (
	refSpinIters = 100_000_000
	refBufBytes  = 64 << 20
	refCopies    = 65536
)

var refSink uint64

// newRefBuf is the buffer the memory reference copies out of.
func newRefBuf() []byte {
	buf := make([]byte, refBufBytes)
	for i := 0; i < len(buf); i += blk {
		buf[i] = byte(i) // fault every page in
	}
	return buf
}

// hostRefs times the two loops, in ms.
func hostRefs(buf []byte) (spinMs, memcpyMs float64) {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < refSpinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinMs = float64(time.Since(t0)) / 1e6
	var dst [blk]byte
	var sum uint64
	t0 = time.Now()
	for i := 0; i < refCopies; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		off := x % (refBufBytes / blk) * blk
		copy(dst[:], buf[off:off+blk])
		sum += uint64(dst[x%blk])
	}
	memcpyMs = float64(time.Since(t0)) / 1e6
	refSink += x + sum
	return spinMs, memcpyMs
}
