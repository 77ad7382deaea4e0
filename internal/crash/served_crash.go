// Served crash campaigns run N tenants through the internal/server
// session/RPC layer — resumable clients over in-process stream
// connections (Server.Pipe) — kill the daemon at an armed persistence
// event, recover the backend, restart the server as a new generation,
// and let every client re-attach and replay. One goroutine drives every
// tenant: at each syscall boundary the seed draws the tenant that goes
// next, and each request executes on that goroutine as its client writes
// it. The schedule is an input, as in CHESS (Musuvathi et al., OSDI '08)
// at request granularity: every event of the recorded window fires when
// armed, and a violation replays from its (kind, seed, crash point) alone.

package crash

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// ServedCampaign configures one daemon-death run. Replies are dropped
// from the instant the armed crash fires (Config.FailReplies), so an
// operation is acknowledged only if it finished before the durable image
// froze; the first redial after that is the daemon death. The campaign
// verifies three things:
//
//  1. Crash-point oracle, per tenant: the recovered subtree satisfies the
//     kind's guarantee for the syscalls the tenant completed before the
//     armed event, read from the per-step event map as Run reads
//     SysEvents; only the tenant whose step was in flight counts as
//     interrupted.
//  2. Exactly-once: in neither server generation does a rename, unlink
//     or mkdir apply twice.
//  3. Final state, per tenant: once every client has resumed and
//     finished, the file system matches the model's end state exactly.
type ServedCampaign struct {
	Kind string // the stack kind served and crashed (Campaign.Kind)
	// Tenants is the number of resumable sessions (default 3); ignored
	// when TenantOps is set.
	Tenants int
	// OpsPerTenant sizes each generated workload (default 12), which
	// ends with an OpSyncAll barrier.
	OpsPerTenant int
	// TenantOps, when non-nil, overrides the generated workloads (one
	// slice per tenant) — minimization shrinks campaigns through this.
	TenantOps [][]Op
	// Seed drives workload generation, the tenant schedule, and the wire
	// fault cadence.
	Seed uint64
	// CrashAt arms the daemon death at that crash point (zero = no crash;
	// the campaign still verifies the final state).
	CrashAt pmem.CrashPoint
	// FaultCadence, when positive, arms a client-side mid-frame write
	// cut on every FaultCadence-th dial of each tenant, the first
	// included, forcing warm re-attaches and replay before the crash and
	// during cold resume after it (0 = no wire faults). 1 arms every
	// dial, which a frame longer than the largest cut never survives; the
	// nightly matrix sweeps 2, 3, 5.
	FaultCadence int
	// Leases turns the zero-copy data plane on for every session and
	// interleaves leased-read probes through the workload, so leases are
	// outstanding when the daemon dies; no lease may survive a
	// generation's teardown.
	Leases bool
	// SkipFence is the fence fault-injection hook for harness self-tests
	// (see Campaign.SkipFence).
	SkipFence func(seq int64) bool
	// Trace records the persistence-event trace of generation 1, from
	// setup's end to the daemon death or the run's end.
	Trace bool
}

// ServedResult reports one served campaign.
type ServedResult struct {
	// AckedSys[i] is the syscall prefix tenant i's crash-point oracle
	// verified: the syscalls it completed before the armed event.
	AckedSys  []int
	Violation string // empty when every check held
	// BaselineEvents/TotalEvents bound the run's persistence events; a
	// no-crash run's are ServedExplore's sweep window.
	BaselineEvents, TotalEvents int64
	// Gen1/Gen2 snapshot the wire/replay counters of the two server
	// generations (Gen2 is zero when no crash was armed).
	Gen1, Gen2 server.WireStats
	Trace      []pmem.Event // ServedCampaign.Trace
	// Flight is the flight-recorder report of the generation that
	// breached, so a minimized reproducer ships with its own trace.
	Flight string
}

// errServedAborted ends the step in flight once the daemon death has
// found a violation.
var errServedAborted = errors.New("crash: served campaign aborted")

// servedTenant is one tenant's workload, model, client, and progress.
type servedTenant struct {
	root   string
	sys    []syscall
	model  *modelRun
	cl     *server.Client
	r      *runner
	events []int64 // events[j]: the device's event count when syscall j completed
}

// probe issues a small positional read on an open handle, so a lease is
// outstanding whenever the daemon dies (the workloads have no reads).
// Content and errors are the crash oracles' business, not the probe's.
func (t *servedTenant) probe(i int) {
	if len(t.r.handles) == 0 {
		return
	}
	names := slices.Sorted(maps.Keys(t.r.handles))
	var buf [64]byte
	_, _ = t.r.handles[names[i%len(names)]].ReadAt(buf[:], 0)
}

// servedCounter counts successful renames, unlinks and mkdirs by
// signature. The workloads never reuse a name, so within one generation
// a signature applying twice is a broken replay.
type servedCounter struct {
	vfs.FileSystem
	applied map[string]int
}

func (c *servedCounter) count(err error, sig string) error {
	if err == nil {
		c.applied[sig]++
	}
	return err
}

func (c *servedCounter) Mkdir(path string, perm uint32) error {
	return c.count(c.FileSystem.Mkdir(path, perm), "mkdir "+path)
}

func (c *servedCounter) Unlink(path string) error {
	return c.count(c.FileSystem.Unlink(path), "unlink "+path)
}

func (c *servedCounter) Rename(oldPath, newPath string) error {
	return c.count(c.FileSystem.Rename(oldPath, newPath), "rename "+oldPath+" -> "+newPath)
}

// groupCounter is a servedCounter over a backend with a group sync of
// its own (U-Split's), which it forwards; a backend without one gets the
// session's per-handle fsyncs (vfs.SyncAll).
type groupCounter struct{ *servedCounter }

func (c groupCounter) SyncAll() error {
	return c.FileSystem.(interface{ SyncAll() error }).SyncAll()
}

// workloads returns TenantOps when set, otherwise Tenants (default 3)
// generated workloads of OpsPerTenant (default 12) operations each.
func (c ServedCampaign) workloads() [][]Op {
	if c.TenantOps != nil {
		return c.TenantOps
	}
	tenants, ops := c.Tenants, c.OpsPerTenant
	if tenants <= 0 {
		tenants = 3
	}
	if ops <= 0 {
		ops = 12
	}
	out := make([][]Op, tenants)
	for i := range out {
		out[i] = ServedOps(mix(c.Seed, uint64(i)+0x7e57), ops)
	}
	return out
}

// servedRun is one campaign in progress.
type servedRun struct {
	c       ServedCampaign
	env     *stack.Stack // generation 1's stack; its device throughout
	st      *stack.Stack // the current generation's stack
	srv     *server.Server
	counter *servedCounter // the current generation's backend
	gen     int
	tenants []*servedTenant
	cur     int // the tenant whose step is in flight; -1 between steps
	res     ServedResult
}

// RunServed executes one served campaign and verifies its oracles.
func RunServed(c ServedCampaign) (*ServedResult, error) {
	env, err := newStack(c.Kind)
	if err != nil {
		return nil, err
	}
	r := &servedRun{c: c, env: env, st: env, gen: 1, cur: -1}
	// Setup: the tenants' subtree roots, made durable by a commit barrier
	// (create+fsync a marker) — the oracles verify subtrees, and a cold
	// re-attach after the restart needs its session root.
	for i, ops := range c.workloads() {
		root := fmt.Sprintf("/t%d", i)
		if err := env.FS.Mkdir(root, 0o755); err != nil {
			return nil, err
		}
		sys := compile(ops)
		r.tenants = append(r.tenants, &servedTenant{root: root, sys: sys, model: buildModel(stack.GuaranteeOf(c.Kind), sys)})
	}
	if err := vfs.WriteFile(env.FS, "/served-setup", nil); err != nil {
		return nil, err
	}
	r.res.BaselineEvents = env.Dev.Events()
	crashAt := c.CrashAt.Ev.Seq
	if crashAt > 0 && crashAt <= r.res.BaselineEvents {
		return nil, fmt.Errorf("crash: served crash event %d falls inside setup (baseline %d)",
			crashAt, r.res.BaselineEvents)
	}
	if c.SkipFence != nil {
		env.Dev.SetFenceFilter(c.SkipFence)
	}
	env.Dev.SetTracing(c.Trace)
	if crashAt > 0 {
		c.CrashAt.Arm(env.Dev)
	}
	r.serve(env.FS, env.Dev.CrashFired)

	for i, t := range r.tenants {
		rng, dials := sim.NewRNG(mix(c.Seed, uint64(i)^0xFA7)), 0
		// An armed dial's cut lands at a seeded byte offset past the
		// attach handshake.
		redial := func() (io.ReadWriteCloser, error) {
			rwc, err := r.dial()
			if dials++; err != nil || c.FaultCadence <= 0 || (dials-1)%c.FaultCadence != 0 {
				return rwc, err
			}
			fc := server.NewFaultConn(rwc)
			fc.CutWriteAfter(rng.Intn(512) + 48)
			return fc, nil
		}
		// The session root confines every path, so the root-relative
		// workload and its model need no translation.
		if t.cl, err = server.DialResumableConfig(redial, server.ClientConfig{Root: t.root, EnableLeases: c.Leases}); err != nil {
			return nil, fmt.Errorf("tenant %s: attach: %w", t.root, err)
		}
		t.r = &runner{fs: t.cl, handles: map[string]vfs.File{}}
	}

	// The schedule: the seed draws which unfinished tenant takes each step.
	sched := sim.NewRNG(mix(c.Seed, 0x5c4ed))
	live := make([]int, len(r.tenants))
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := sched.Intn(len(live))
		r.cur = live[k]
		t := r.tenants[r.cur]
		err := r.step(t)
		r.cur = -1
		switch {
		case r.res.Violation != "":
			return &r.res, nil
		case err != nil && r.gen == 1:
			return nil, err
		case err != nil:
			// Not finishing against the recovered generation is a serving
			// failure: under fault injection the recovered image can be
			// corrupt in ways mount and the oracles miss but replay trips
			// over. Record it like any breach, so sweeps minimize it.
			r.res.Violation = fmt.Sprintf("post-restart serving failed: %v", err)
			r.res.Flight = r.srv.FlightReport()
			return &r.res, nil
		case len(t.events) == len(t.sys):
			live = append(live[:k], live[k+1:]...)
		}
	}
	if crashAt > 0 && r.gen == 1 {
		// No redial came after the armed event: it fired in a goodbye,
		// fires in generation 1's Close, or lies past the run.
		if err := r.die(); errors.Is(err, errServedAborted) {
			return &r.res, nil
		} else if err != nil {
			return nil, err
		}
	}
	vio := r.endGeneration()
	r.res.TotalEvents = env.Dev.Events()
	if c.Trace && r.gen == 1 {
		r.res.Trace = env.Dev.Trace()
	}
	if vio == "" {
		vio = finalCheck(r.tenants, r.st)
	}
	if vio != "" {
		r.res.Violation, r.res.Flight = vio, r.srv.FlightReport()
	}
	return &r.res, nil
}

// serve starts a server generation over fs.
func (r *servedRun) serve(fs vfs.FileSystem, failReplies func() bool) {
	r.counter = &servedCounter{FileSystem: fs, applied: map[string]int{}}
	var backend vfs.FileSystem = r.counter
	if _, ok := fs.(interface{ SyncAll() error }); ok {
		backend = groupCounter{r.counter}
	}
	r.srv = server.New(backend, server.Config{FailReplies: failReplies,
		// Each flight record shows the sim-clock cost and fences of its op.
		OpClock: r.env.Clock.Now, OpFences: r.env.Dev.FenceCount})
}

// dial connects a tenant to the current generation. The first dial after
// the armed event fires is the daemon death: a dial into the dying
// generation would only have its replies dropped.
func (r *servedRun) dial() (io.ReadWriteCloser, error) {
	if r.gen == 1 && r.env.Dev.CrashFired() {
		if err := r.die(); err != nil {
			return nil, err
		}
	}
	return r.srv.Pipe()
}

// step runs the tenant's next syscall, then a leased-read probe when
// leases are on; after its last syscall the tenant says goodbye.
func (r *servedRun) step(t *servedTenant) error {
	if j := len(t.events); j < len(t.sys) {
		sc := t.sys[j]
		if err := t.r.apply(sc); err != nil {
			return fmt.Errorf("tenant %s: op %d (%v %s): %w", t.root, sc.opIdx, sc.kind, sc.path, err)
		}
		t.events = append(t.events, r.env.Dev.Events())
		if r.c.Leases {
			t.probe(j)
		}
	}
	if len(t.events) == len(t.sys) {
		t.cl.Close() // best effort: the daemon may die mid-detach
	}
	return nil
}

// die is the daemon death: generation 1 ends, the device crashes and
// recovers, each tenant's recovered subtree is checked at its crash
// prefix, and generation 2 starts on the recovered backend with no
// reply faults (each tenant's resume attaches fresh and replays cold).
// A violation stops the campaign with errServedAborted.
func (r *servedRun) die() error {
	c, dev := r.c, r.env.Dev
	vio := r.endGeneration()
	if !dev.CrashFired() {
		return fmt.Errorf("crash: served crash event %d never fired (the run ended at event %d)",
			c.CrashAt.Ev.Seq, dev.Events())
	}
	if c.Trace {
		r.res.Trace = dev.Trace()
		dev.SetTracing(false)
	}
	for _, t := range r.tenants {
		n := sort.Search(len(t.events), func(j int) bool { return t.events[j] > c.CrashAt.Ev.Seq })
		r.res.AckedSys = append(r.res.AckedSys, n)
	}
	var rec *stack.Stack
	if vio == "" {
		c.CrashAt.Crash(dev)
		rec, _, vio = recover1(r.env)
	}
	for i, t := range r.tenants {
		if vio != "" {
			break
		}
		n := r.res.AckedSys[i]
		if dur, err := captureSubtree(rec.FS, t.root); err != nil {
			vio = fmt.Sprintf("tenant %d: recovered subtree unreadable: %v", i, err)
		} else if v := checkGuarantee(t.model, n, i == r.cur, dur); v != "" {
			vio = fmt.Sprintf("tenant %d (after %d syscalls): %s", i, n, v)
		}
	}
	if vio != "" {
		// Generation 1's traces show what each tenant had in flight when
		// the image froze.
		r.res.Violation, r.res.Flight = vio, r.srv.FlightReport()
		return errServedAborted
	}
	r.gen, r.st = 2, rec
	r.serve(rec.FS, nil)
	return nil
}

// endGeneration closes the current server generation — when Close
// returns, every request it was executing has been answered or dropped —
// and records its counters. A lease outliving the generation, or an
// operation applied twice in it, is a violation.
func (r *servedRun) endGeneration() string {
	r.srv.Close()
	r.env.Dev.SetFenceFilter(nil)
	if r.gen == 1 {
		r.res.Gen1 = r.srv.Stats()
	} else {
		r.res.Gen2 = r.srv.Stats()
	}
	if n := r.srv.ActiveLeases(); n != 0 {
		return fmt.Sprintf("lease plane: %d leases survived generation-%d teardown", n, r.gen)
	}
	var dbl []string
	for sig, n := range r.counter.applied {
		if n > 1 {
			dbl = append(dbl, fmt.Sprintf("%s (applied %d times)", sig, n))
		}
	}
	if len(dbl) > 0 {
		sort.Strings(dbl)
		return fmt.Sprintf("exactly-once: operations applied twice in generation %d: %s",
			r.gen, strings.Join(dbl, "; "))
	}
	return ""
}

// finalCheck verifies, per tenant, that the fully-resumed file system
// matches the model's end state exactly — every operation has been
// acknowledged by now, on every kind — and that the image under it is
// structurally sound.
func finalCheck(tenants []*servedTenant, st *stack.Stack) string {
	for i, t := range tenants {
		dur, err := captureSubtree(st.FS, t.root)
		if err != nil {
			return fmt.Sprintf("tenant %d: final subtree unreadable: %v", i, err)
		}
		if why := matchExact(t.model.states[len(t.sys)], dur); why != "" {
			return fmt.Sprintf("tenant %d: final state diverged after resume: %s", i, why)
		}
	}
	if err := st.Check(); err != nil {
		return fmt.Sprintf("final image fails its structural check: %v", err)
	}
	return ""
}
