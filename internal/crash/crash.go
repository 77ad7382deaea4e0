// Package crash is the crash-consistency exploration engine (§5.3 of the
// paper, grown into a persistence-event harness; see DESIGN.md): it runs
// a workload against SplitFS, injects a crash — at an operation boundary
// or at ANY numbered persistence event inside an operation, with torn
// unfenced cache lines — recovers, and checks the guarantee the mode
// advertises:
//
//   - POSIX: the file system mounts; the namespace equals the state after
//     some syscall prefix no older than the last journal commit; fsynced
//     content survives outside ranges rewritten since.
//   - Sync: every completed syscall is durable.
//   - Strict: every completed syscall is durable AND atomic — the durable
//     state must exactly equal the model just before or just after the
//     interrupted syscall.
//
// On top of single crashes the package offers full persistence-event
// sweeps (Explore), double-crash campaigns that crash again inside
// recovery itself, fault injection (skipping fences), and automatic
// workload minimization of violating campaigns (Minimize).
//
// Served campaigns (RunServed, ServedExplore, ServedMinimize) kill the
// file service instead: several resumable tenant sessions, driven by
// one goroutine on a schedule drawn from the seed, lose their daemon at
// an armed event, and each tenant is checked at the prefix a per-step
// event map gives it. Every run of the package is a function of its
// configuration, so every violation replays from its seed and event.
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
	Mode splitfs.Mode
	// Ops is the workload.
	Ops []Op
	// CrashAfter is the operation index after which the crash is injected
	// (len(Ops) crashes after everything). Ignored when CrashAtEvent is
	// set.
	CrashAfter int
	// Seed drives torn-line injection.
	Seed uint64
	// CrashAtEvent, when positive, crashes at that absolute persistence
	// event instead of an operation boundary: the workload runs to
	// completion against a device whose durable image froze — torn lines
	// included — the moment event CrashAtEvent completed. Event numbers
	// come from a recording run's SysEvents (see Explore).
	CrashAtEvent int64
	// DoubleCrashEvent, when positive, injects a second crash at that
	// absolute persistence event during recovery from the first crash,
	// then recovers again — verifying that recovery itself is
	// crash-consistent and idempotent.
	DoubleCrashEvent int64
	// SkipFence is a fault-injection hook for harness self-tests: it
	// receives each fence's 1-based sequence number (counted from the
	// start of the workload) and suppresses the fence when it returns
	// true. The hook is removed before recovery runs.
	SkipFence func(seq int64) bool
	// Trace records the full persistence-event trace of the run.
	Trace bool
	// model is the model of (Mode, Ops) when the caller already has it:
	// a sweep evaluates it once, not once per crash point.
	model *modelRun
}

// Result reports what the checker verified.
type Result struct {
	Executed  int    // completed workload operations
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

	// SysEvents[i] is the device's persistence-event counter after the
	// i-th syscall of the workload; SysEvents[0] is the post-setup
	// baseline. Crashable events for this workload are
	// (SysEvents[0], SysEvents[len-1]].
	SysEvents []int64
	// CrashSys / Interrupted locate the injected crash: CrashSys syscalls
	// completed, and Interrupted means the crash hit inside the next one.
	CrashSys    int
	Interrupted bool
	// RecoveryStart/End bound the persistence events of the (first)
	// recovery — the window double-crash campaigns sweep.
	RecoveryStart, RecoveryEnd int64
	// DoubleFired reports whether the armed double-crash point was
	// actually reached inside recovery.
	DoubleFired bool
	// Trace is the recorded event trace (Campaign.Trace).
	Trace []pmem.Event
}

// newCrashStack builds one campaign's private simulated machine: the
// SplitFS stack of the given mode at stack.Small sizing, on a device
// that tracks persistence.
func newCrashStack(mode splitfs.Mode) (*stack.Stack, error) {
	spec := stack.Small
	spec.TrackPersistence = true
	return stack.New(stack.SplitFSKind(mode), spec)
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

// Run executes the campaign and verifies the mode's guarantee.
func Run(c Campaign) (*Result, error) {
	env, err := newCrashStack(c.Mode)
	if err != nil {
		return nil, err
	}
	sys := compile(c.Ops)
	stopSys := len(sys)
	if c.CrashAtEvent == 0 {
		stop := c.CrashAfter
		if stop > len(c.Ops) {
			stop = len(c.Ops)
		}
		stopSys = sysPrefix(sys, stop)
	}
	m := c.model
	if m == nil {
		m = buildModel(c.Mode, sys)
	}
	res := &Result{}

	if c.Trace {
		env.Dev.SetTracing(true)
	}
	if c.SkipFence != nil {
		env.Dev.SetFenceFilter(c.SkipFence)
	}
	if c.CrashAtEvent > 0 {
		env.Dev.ArmCrash(c.CrashAtEvent, sim.NewRNG(mix(c.Seed, uint64(c.CrashAtEvent))))
	}

	r := &runner{fs: env.FS, handles: map[string]vfs.File{}}
	res.SysEvents = append(res.SysEvents, env.Dev.Events())
	for i := 0; i < stopSys; i++ {
		if err := r.apply(sys[i]); err != nil {
			return nil, fmt.Errorf("op %d (%v %s): %w", sys[i].opIdx, sys[i].kind, sys[i].path, err)
		}
		res.SysEvents = append(res.SysEvents, env.Dev.Events())
	}
	if c.Trace {
		res.Trace = env.Dev.Trace()
		env.Dev.SetTracing(false)
	}
	env.Dev.SetFenceFilter(nil)

	// Locate the crash point in syscall terms.
	crashSys, interrupted := stopSys, false
	if c.CrashAtEvent > 0 && env.Dev.CrashFired() {
		crashSys = 0
		for i, ev := range res.SysEvents {
			if ev <= c.CrashAtEvent {
				crashSys = i
			}
		}
		interrupted = res.SysEvents[crashSys] != c.CrashAtEvent
	}
	res.CrashSys, res.Interrupted = crashSys, interrupted
	for i := 0; i < crashSys; i++ {
		if sys[i].last {
			res.Executed++
		}
	}

	// Crash with torn unfenced lines (ignored if the armed point already
	// froze the image), then recover — possibly crashing again inside
	// recovery itself.
	if err := env.Dev.Crash(sim.NewRNG(c.Seed)); err != nil {
		return nil, err
	}
	if c.DoubleCrashEvent > 0 {
		env.Dev.ArmCrash(c.DoubleCrashEvent, sim.NewRNG(mix(c.Seed, uint64(c.DoubleCrashEvent))^0xD0))
	}
	res.RecoveryStart = env.Dev.Events()
	rec, report, vio := recover1(env)
	res.RecoveryEnd = env.Dev.Events()
	if rep := report.OpLog; rep != nil {
		res.Replayed, res.MetaReplayed, res.MetaSkipped = rep.Replayed, rep.MetaReplayed, rep.MetaSkipped
	}
	if vio != "" {
		res.Violation = vio
		return res, nil
	}
	if c.DoubleCrashEvent > 0 {
		res.DoubleFired = env.Dev.CrashFired()
		if err := env.Dev.Crash(nil); err != nil {
			return nil, err
		}
		var again stack.Recovery
		rec, again, vio = recover1(env)
		if vio != "" {
			res.Violation = "double-crash: " + vio
			return res, nil
		}
		if again.OpLog != nil {
			res.DoubleInMetaReplay = again.OpLog.MetaSkipped > res.MetaSkipped
		}
	}

	dur, err := captureDurable(rec.FS)
	if err != nil {
		res.Violation = fmt.Sprintf("%v: recovered image unreadable: %v", c.Mode, err)
		return res, nil
	}
	res.Violation = checkGuarantee(m, crashSys, interrupted, dur)
	return res, nil
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
