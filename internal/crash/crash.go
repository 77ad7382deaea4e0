// Package crash is the crash-consistency exploration engine (§5.3 of the
// paper, grown into a persistence-event harness; see DESIGN.md): it runs
// a workload against a file-system stack of any kind, injects a crash —
// at an operation boundary or at any crash point of a recorded trace,
// pmem.CrashPoint: a numbered persistence event inside an operation,
// taken four ways (the unfenced lines revert whole, tear under two
// seeds, or the event's own store lands whole) — recovers, and checks
// the durable state against the kind's row of the paper's Table 3
// (stack.GuaranteeOf; model.go). The kind decides nothing here:
// internal/stack builds it, recovers it with its own Mount and checks
// its image (Stack.Recover, Stack.Check).
//
// On top of single crashes the package offers crash-point sweeps
// (Explore; Sample counts crash points, not events), double-crash
// campaigns that crash again inside recovery itself, and fault injection
// (skipping fences).
//
// Served campaigns (RunServed, ServedExplore) kill the file service
// instead: several resumable tenant sessions, driven by one goroutine on
// a schedule drawn from the seed, lose their daemon at an armed event,
// and each tenant is checked at the prefix a per-step event map gives
// it. Both sweeps return an ExploreResult, and one Minimize shrinks the
// workloads of a violating sweep of either kind to a minimal reproducer.
// Every run of the package is a function of its configuration, so every
// violation replays from its seed and crash point.
package crash

import (
	"fmt"
	"maps"
	"slices"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// Campaign configures a crash-injection run.
type Campaign struct {
	// Kind is the stack kind crashed, one of stack.Kinds().
	Kind string
	// Ops is the workload.
	Ops []Op
	// CrashAfter is the operation index after which the crash is injected
	// (len(Ops) crashes after everything). Ignored when CrashAt is set.
	CrashAfter int
	// Seed drives torn-line injection at a boundary crash.
	Seed uint64
	// CrashAt, when set, crashes at that crash point instead of an
	// operation boundary: the workload runs to completion against a
	// device whose durable image froze the moment the point's event
	// completed, its unfenced lines as the point's way has them. Points
	// come from a recording run's Trace (see Explore).
	CrashAt pmem.CrashPoint
	// SkipFence is a fault-injection hook for harness self-tests: it
	// receives each fence's 1-based sequence number (counted from the
	// start of the workload) and suppresses the fence when it returns
	// true. The hook is removed before recovery runs.
	SkipFence func(seq int64) bool
	// Trace records the full persistence-event trace of the run.
	Trace bool
	// model is the model of (Kind, Ops) when the caller already has it:
	// a sweep evaluates it once, not once per crash point.
	model *modelRun
}

// Result reports what the checker verified.
type Result struct {
	Replayed  int    // strict-mode log entries re-applied by recovery
	Violation string // empty when the guarantee held
	// MetaReplayed / MetaSkipped count the metadata operations the (first)
	// recovery redid from the op log and the records it found already in
	// the journal (sync and strict mode).
	MetaReplayed, MetaSkipped int
	// DoubleInMetaReplay reports that the second crash cut the first
	// recovery's metadata replay short: the second recovery found the log
	// still there and, at or below the stamp, records the first one had
	// had to redo — replay resumed from what the interrupted one committed.
	DoubleInMetaReplay bool
	// Rewinds counts the op-log rewinds the syscalls completed before the
	// crash made: with any, records of an earlier lap may lie past the
	// tail the recovery scanned.
	Rewinds int

	// SysEvents[i] is the device's persistence-event counter after the
	// i-th syscall of the workload; SysEvents[0] is the post-setup
	// baseline. Crashable events for this workload are
	// (SysEvents[0], SysEvents[len-1]].
	SysEvents []int64
	// Trace is the recorded event trace (Campaign.Trace).
	Trace []pmem.Event
}

// newStack builds the named stack at stack.Small sizing on a device that
// tracks persistence: one campaign's private simulated machine, or one
// backend of a differential run.
func newStack(name string) (*stack.Stack, error) {
	spec := stack.Small
	spec.TrackPersistence = true
	return stack.New(name, spec)
}

// rewinds is how many op-log laps a U-Split instance has ended so far;
// 0 for any other file system.
func rewinds(fs vfs.FileSystem) int {
	if s, ok := fs.(*splitfs.FS); ok {
		return int(s.Stats().Rewinds)
	}
	return 0
}

// runner executes compiled syscalls, tracking open handles the way
// compile assumed. Handles dropped by unlink/rename without a close stay
// open (orphan inodes) until the simulated process dies with the crash.
// The runner drives any vfs.FileSystem, so the differential
// backend-equivalence suite feeds one trace through every backend.
type runner struct {
	fs      vfs.FileSystem
	handles map[string]vfs.File
	orphans []vfs.File
}

func (r *runner) apply(sc syscall) error {
	switch sc.kind {
	case sysOpen:
		h, err := r.fs.OpenFile(sc.path, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			return err
		}
		r.handles[sc.path] = h
		return nil
	case sysWrite:
		h := r.handles[sc.path]
		off := sc.off
		if off < 0 {
			info, err := h.Stat()
			if err != nil {
				return err
			}
			off = info.Size
		}
		_, err := h.WriteAt(sc.data, off)
		return err
	case sysFsync:
		return r.handles[sc.path].Sync()
	case sysClose:
		h := r.handles[sc.path]
		delete(r.handles, sc.path)
		return h.Close()
	case sysUnlink:
		if h, ok := r.handles[sc.path]; ok {
			// Unlink-while-open: the handle stays usable (orphan inode);
			// it is never closed, so the orphan lives until the crash.
			r.orphans = append(r.orphans, h)
			delete(r.handles, sc.path)
		}
		return r.fs.Unlink(sc.path)
	case sysRename:
		if h2, ok := r.handles[sc.path2]; ok {
			r.orphans = append(r.orphans, h2) // replaced target becomes an orphan
			delete(r.handles, sc.path2)
		}
		if err := r.fs.Rename(sc.path, sc.path2); err != nil {
			return err
		}
		if h, ok := r.handles[sc.path]; ok {
			r.handles[sc.path2] = h
			delete(r.handles, sc.path)
		}
		return nil
	case sysTruncate:
		return r.handles[sc.path].Truncate(sc.size)
	case sysMkdir:
		return r.fs.Mkdir(sc.path, 0755)
	case sysSyncall:
		// Group sync: splitfs relinks every open file under one journal
		// commit; backends without a SyncAll get the equivalent sequence
		// of per-handle fsyncs in path order.
		files := make([]vfs.File, 0, len(r.handles))
		for _, p := range slices.Sorted(maps.Keys(r.handles)) {
			files = append(files, r.handles[p])
		}
		return vfs.SyncAll(r.fs, files)
	default:
		return fmt.Errorf("crash: unknown syscall %v", sc.kind)
	}
}

// Run executes the campaign and verifies the kind's guarantee.
func Run(c Campaign) (*Result, error) {
	img, res, err := crashed(c)
	if err == nil {
		img.recover(res, pmem.CrashPoint{}, false)
	}
	return res, err
}

// image is a crashed stack, not yet recovered, and what the oracle needs
// to judge a recovery of it. A recovery spends the stack's device, so an
// image recovered more than once is recovered from copies.
type image struct {
	st          *stack.Stack
	m           *modelRun
	crashSys    int  // syscalls completed before the crash
	interrupted bool // the crash hit inside syscall crashSys+1
}

// crashed runs the campaign's workload and crashes it: to the armed
// point's image, or at the boundary with torn unfenced lines. The Result
// holds what the workload reported (SysEvents, Trace, Rewinds).
func crashed(c Campaign) (*image, *Result, error) {
	env, err := newStack(c.Kind)
	if err != nil {
		return nil, nil, err
	}
	sys := compile(c.Ops)
	stopSys, crashAt := len(sys), c.CrashAt.Ev.Seq
	if crashAt == 0 {
		stop := c.CrashAfter
		if stop > len(c.Ops) {
			stop = len(c.Ops)
		}
		stopSys = sysPrefix(sys, stop)
	}
	img := &image{st: env, m: c.model}
	if img.m == nil {
		img.m = buildModel(stack.GuaranteeOf(c.Kind), sys)
	}
	res := &Result{}

	if c.Trace {
		env.Dev.SetTracing(true)
	}
	if c.SkipFence != nil {
		env.Dev.SetFenceFilter(c.SkipFence)
	}
	if crashAt > 0 {
		c.CrashAt.Arm(env.Dev)
	}

	r := &runner{fs: env.FS, handles: map[string]vfs.File{}}
	res.SysEvents = append(res.SysEvents, env.Dev.Events())
	laps := []int{rewinds(env.FS)} // laps[i]: rewinds after the i-th syscall
	for i := 0; i < stopSys; i++ {
		if err := r.apply(sys[i]); err != nil {
			return nil, nil, fmt.Errorf("op %d (%v %s): %w", sys[i].opIdx, sys[i].kind, sys[i].path, err)
		}
		res.SysEvents = append(res.SysEvents, env.Dev.Events())
		laps = append(laps, rewinds(env.FS))
	}
	if c.Trace {
		res.Trace = env.Dev.Trace()
		env.Dev.SetTracing(false)
	}
	env.Dev.SetFenceFilter(nil)

	// Locate the crash point in syscall terms.
	img.crashSys = stopSys
	if crashAt > 0 && env.Dev.CrashFired() {
		img.crashSys = 0
		for i, ev := range res.SysEvents {
			if ev <= crashAt {
				img.crashSys = i
			}
		}
		img.interrupted = res.SysEvents[img.crashSys] != crashAt
	}
	res.Rewinds = laps[img.crashSys] - laps[0]

	if crashAt > 0 {
		c.CrashAt.Crash(env.Dev)
	} else if err := env.Dev.Crash(sim.NewRNG(c.Seed)); err != nil {
		return nil, nil, err
	}
	return img, res, nil
}

// copy returns the image on a copy of its device, with a clock of its
// own: each recovery of a sweep's image runs on one.
func (img *image) copy() *image {
	c := *img
	clk := sim.NewClock()
	c.st = &stack.Stack{Kind: img.st.Kind, Clock: clk, Dev: img.st.Dev.Copy(clk), Spec: img.st.Spec}
	return &c
}

// recover recovers the image and checks the kind's guarantee, into res.
// With second set it crashes again at that point inside the recovery and
// recovers again, verifying that recovery itself is crash-consistent and
// idempotent. With trace it returns the first recovery's persistence
// events, the trace a double-crash sweep takes its second points from.
func (img *image) recover(res *Result, second pmem.CrashPoint, trace bool) (recovery []pmem.Event) {
	if second.Ev.Seq > 0 {
		second.Arm(img.st.Dev)
	}
	if trace {
		img.st.Dev.SetTracing(true)
	}
	rec, report, vio := recover1(img.st)
	if trace {
		recovery = img.st.Dev.Trace()
		img.st.Dev.SetTracing(false)
	}
	if rep := report.OpLog; rep != nil {
		res.Replayed, res.MetaReplayed, res.MetaSkipped = rep.Replayed, rep.MetaReplayed, rep.MetaSkipped
	}
	if vio != "" {
		res.Violation = vio
		return recovery
	}
	if second.Ev.Seq > 0 {
		second.Crash(img.st.Dev)
		var again stack.Recovery
		rec, again, vio = recover1(img.st)
		if vio != "" {
			res.Violation = "double-crash: " + vio
			return recovery
		}
		if again.OpLog != nil {
			res.DoubleInMetaReplay = again.OpLog.MetaSkipped > res.MetaSkipped
		}
	}

	dur, err := captureDurable(rec.FS)
	if err != nil {
		res.Violation = fmt.Sprintf("%s: recovered image unreadable: %v", img.st.Kind, err)
		return recovery
	}
	res.Violation = checkGuarantee(img.m, img.crashSys, img.interrupted, dur)
	return recovery
}

// recover1 performs one mount+recovery pass, mapping failures to
// violations (a crash must never leave an unmountable file system).
// Panics inside mount or recovery are violations too — a corrupt image
// crashing the recovery code (found by the served fence-fault self-test:
// an allocator double free in the staging-pool rebuild) must be recorded
// and minimized like any other breach, not kill the sweep process. What
// mounts must also pass the stack's structural check: the oracles that
// follow compare names and contents, and cannot see a block owned twice.
func recover1(st *stack.Stack) (rec *stack.Stack, report stack.Recovery, vio string) {
	defer func() {
		if r := recover(); r != nil {
			rec, report = nil, stack.Recovery{}
			vio = fmt.Sprintf("recovery panicked: %v", r)
		}
	}()
	rec, report, err := st.Recover()
	if err != nil {
		return nil, report, err.Error()
	}
	if err := rec.Check(); err != nil {
		return nil, report, fmt.Sprintf("recovered image fails its structural check: %v", err)
	}
	return rec, report, ""
}

// mix is a splitmix64-style hash for deriving independent seeds.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
