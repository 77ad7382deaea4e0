// Served crash campaigns run N concurrent tenants through the
// internal/server session/RPC layer over real stream transports, kill
// the daemon at an armed persistence event, recover the backend from the
// frozen durable image, restart the server as a new generation, and let
// every client re-attach and replay. Tenant goroutines and the
// crash-monitor goroutine are the point of the campaign; scheduling
// nondeterminism is accepted (the per-tenant oracles derive the crash
// prefix from acknowledgements, not from a recorded event map).
//
// +determinism:concurrent

package crash

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// ServedCampaign configures one daemon-death run: tenants drive
// independent workloads over resumable sessions, the device crash is
// armed at an absolute persistence event, and — because replies are
// suppressed the instant the crash fires (Config.FailReplies) — an
// operation is only ever acknowledged if it finished executing before
// the durable image froze. After recovery the clients reconnect, replay,
// and finish; the campaign then verifies three things:
//
//  1. Crash-point oracle, per tenant: the recovered subtree satisfies the
//     mode's guarantee for the tenant's acknowledged syscall prefix
//     (checkGuarantee with interrupted=true — the single outstanding
//     request may have partially executed past the last ack).
//  2. Exactly-once: on the recovered generation no non-idempotent
//     operation (rename, unlink, mkdir) applies twice — a replayed
//     request that already executed is answered from the reply cache or
//     healed, never re-applied.
//  3. Final state, per tenant: once every client has resumed and
//     finished, the file system matches the model's end state exactly —
//     every operation applied, none lost, none doubled.
type ServedCampaign struct {
	Mode splitfs.Mode
	// Tenants is the number of concurrent resumable sessions (default 3).
	// Ignored when TenantOps is set.
	Tenants int
	// OpsPerTenant sizes each generated workload (default 12). Each
	// workload ends with an OpSyncAll barrier.
	OpsPerTenant int
	// TenantOps, when non-nil, overrides the generated workloads (one
	// slice per tenant) — minimization shrinks campaigns through this.
	TenantOps [][]Op
	// Seed drives workload generation, torn-line injection, and the wire
	// fault cadence.
	Seed uint64
	// CrashAtEvent arms the daemon death at that absolute persistence
	// event (0 = no crash; the campaign still verifies the final state).
	CrashAtEvent int64
	// WireFaults arms client-side mid-frame write cuts on a deterministic
	// dial cadence (see FaultCadence), forcing warm re-attaches and
	// replay even before the crash (and during cold resume after it).
	WireFaults bool
	// FaultCadence sets how often WireFaults arms a cut: every
	// FaultCadence-th dial starting with the first (default 2 — the
	// historical every-other-dial alternation). 1 arms every dial;
	// higher values thin the fault pressure. The nightly matrix sweeps
	// this.
	FaultCadence int
	// Leases negotiates the zero-copy data plane on every tenant session
	// and interleaves leased-read probes through the workload, so leases
	// are genuinely outstanding when the daemon dies. The campaign then
	// additionally asserts that no lease survives generation 1's
	// teardown.
	Leases bool
	// SkipFence is the fence fault-injection hook for harness self-tests
	// (see Campaign.SkipFence); it must be safe for concurrent calls.
	SkipFence func(seq int64) bool
	// Trace records the full persistence-event trace (debug).
	Trace bool
}

// ServedResult reports one served campaign.
type ServedResult struct {
	// Fired reports whether the armed crash event was reached (with
	// concurrent scheduling an event near the end of the recording window
	// may not be).
	Fired bool
	// AckedSys[i] is tenant i's acknowledged syscall count when the
	// daemon died — the prefix its crash-point oracle verified.
	AckedSys []int
	// Violation is empty when every check held.
	Violation string
	// Replayed counts strict-mode log entries recovery re-applied;
	// JournalReplayed counts K-Split journal transactions replayed at
	// mount.
	Replayed        int
	JournalReplayed int
	// BaselineEvents/TotalEvents bound the run's persistence events
	// (TotalEvents from a no-crash run is the sweep window for
	// ServedExplore).
	BaselineEvents, TotalEvents int64
	// Gen1/Gen2 snapshot the wire/replay counters of the two server
	// generations (Gen2 is zero when the crash never fired).
	Gen1, Gen2 server.WireStats
	// Trace is the recorded event trace (ServedCampaign.Trace).
	Trace []pmem.Event
	// Flight carries the flight-recorder traces of the server
	// generation that was active when Violation was detected (empty
	// when every check held): the last ops each tenant had in flight,
	// so a minimized reproducer ships with its own trace.
	Flight string
}

// errServedAborted releases tenants blocked on redial when the campaign
// stops without restarting the server (recovery failed or an oracle
// already violated).
var errServedAborted = errors.New("crash: served campaign aborted")

// servedTenant is one tenant's workload, model, and progress counter.
type servedTenant struct {
	root   string
	ops    []Op
	sys    []syscall
	model  *modelRun
	leases bool
	// acked counts acknowledged syscalls. The driver increments it before
	// sending the next syscall, so at any instant every syscall beyond
	// acked+1 has provably not begun executing — the precondition of the
	// per-tenant crash oracle's (acked, interrupted=true) invocation.
	acked atomic.Int64
	err   error
}

// drive runs the tenant's compiled workload over a resumable session
// rooted at the tenant's subtree. The session root confines every path,
// so workloads use root-relative names and the per-tenant model needs no
// translation.
func (t *servedTenant) drive(redial func() (io.ReadWriteCloser, error)) error {
	cl, err := server.DialResumableConfig(redial,
		server.ClientConfig{Root: t.root, EnableLeases: t.leases})
	if err != nil {
		return fmt.Errorf("tenant %s: attach: %w", t.root, err)
	}
	r := &runner{fs: cl, handles: map[string]vfs.File{}}
	for i := range t.sys {
		if err := r.apply(t.sys[i]); err != nil {
			cl.Close()
			return fmt.Errorf("tenant %s: op %d (%v %s): %w",
				t.root, t.sys[i].opIdx, t.sys[i].kind, t.sys[i].path, err)
		}
		t.acked.Add(1)
		if t.leases {
			t.probe(r, i)
		}
	}
	cl.Close() // best-effort goodbye; the daemon may die mid-detach
	return nil
}

// probe issues one small positional read against an open handle so that
// a lease is genuinely outstanding whenever the daemon dies (the
// generated workloads have no read syscalls — without probes the lease
// plane would sit empty across the kill). Content and errors are
// ignored: the crash oracles own correctness; the probe's only job is
// to keep leases granted and in flight.
func (t *servedTenant) probe(r *runner, i int) {
	if len(r.handles) == 0 {
		return
	}
	names := make([]string, 0, len(r.handles))
	for n := range r.handles {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf [64]byte
	_, _ = r.handles[names[i%len(names)]].ReadAt(buf[:], 0)
}

// servedDialer hands tenants transports into the current server
// generation, blocking redials while the daemon is down. "Down" starts
// the instant the armed crash fires — not when the monitor gets around
// to tearing generation 1 down — because a redial into the dying server
// only ever gets its replies dropped, and letting those attempts through
// would burn the client's bounded resume budget against a corpse.
type servedDialer struct {
	mu     sync.Mutex
	srv    *server.Server
	fallen func() bool // true once the crash fired (nil = never)
	gen    int
	// blocked covers the monitor's teardown/recover/restart span; wait is
	// re-made on every completeRestart and woken by closing it.
	blocked bool
	wait    chan struct{}
	err     error
}

func newServedDialer(srv *server.Server, fallen func() bool) *servedDialer {
	return &servedDialer{srv: srv, fallen: fallen, gen: 1, wait: make(chan struct{})}
}

// beginRestart blocks subsequent redials until completeRestart.
func (d *servedDialer) beginRestart() {
	d.mu.Lock()
	d.blocked = true
	d.mu.Unlock()
}

// completeRestart installs the recovered generation, or — with err set —
// aborts every blocked and future redial.
func (d *servedDialer) completeRestart(srv *server.Server, err error) {
	d.mu.Lock()
	d.srv = srv
	d.err = err
	d.gen++
	d.blocked = false
	close(d.wait)
	d.wait = make(chan struct{})
	d.mu.Unlock()
}

func (d *servedDialer) redial() (io.ReadWriteCloser, error) {
	for {
		d.mu.Lock()
		if d.err != nil {
			err := d.err
			d.mu.Unlock()
			return nil, err
		}
		down := d.blocked || (d.gen == 1 && d.fallen != nil && d.fallen())
		if !down {
			srv := d.srv
			d.mu.Unlock()
			cs, ss := net.Pipe()
			go srv.ServeConn(ss)
			return cs, nil
		}
		ch := d.wait
		d.mu.Unlock()
		<-ch
	}
}

// tenantDialer layers the wire-fault cadence over the shared dialer:
// every cadence-th dial (the first included) is armed with a
// client-side write cut at a seeded byte offset, tearing the transport
// mid-frame somewhere into the session — so warm re-attach and request
// replay are exercised even before the crash, and again during cold
// resume after it. The default cadence of 2 alternates armed and clean
// dials, keeping each resume within the client's bounded attempt
// budget; cadence 1 arms every dial (the client's budget still wins
// because the cut offset eventually lands past the whole workload).
// The budget floor keeps the cut past the attach handshake.
type tenantDialer struct {
	d       *servedDialer
	rng     *sim.RNG
	faults  bool
	cadence int
	dials   int
}

func (t *tenantDialer) redial() (io.ReadWriteCloser, error) {
	rwc, err := t.d.redial()
	if err != nil || !t.faults {
		return rwc, err
	}
	cadence := t.cadence
	if cadence <= 0 {
		cadence = 2
	}
	t.dials++
	if (t.dials-1)%cadence == 0 {
		fc := server.NewFaultConn(rwc)
		fc.CutWriteAfter(t.rng.Intn(512) + 48)
		return fc, nil
	}
	return rwc, nil
}

// servedCounter counts successful applications of the non-idempotent
// namespace operations by signature. The workloads never reuse names, so
// on the recovered generation a signature applying twice is exactly a
// broken replay (cache miss plus failed heal). SyncAll forwards to the
// backend so the group-commit path — and strict-mode atomicity — is
// preserved through the wrapper.
type servedCounter struct {
	vfs.FileSystem
	mu      sync.Mutex
	applied map[string]int
}

func (c *servedCounter) bump(sig string) {
	c.mu.Lock()
	if c.applied == nil {
		c.applied = map[string]int{}
	}
	c.applied[sig]++
	c.mu.Unlock()
}

func (c *servedCounter) Mkdir(path string, perm uint32) error {
	err := c.FileSystem.Mkdir(path, perm)
	if err == nil {
		c.bump("mkdir " + path)
	}
	return err
}

func (c *servedCounter) Unlink(path string) error {
	err := c.FileSystem.Unlink(path)
	if err == nil {
		c.bump("unlink " + path)
	}
	return err
}

func (c *servedCounter) Rename(oldPath, newPath string) error {
	err := c.FileSystem.Rename(oldPath, newPath)
	if err == nil {
		c.bump("rename " + oldPath + " -> " + newPath)
	}
	return err
}

func (c *servedCounter) SyncAll() error {
	sa, ok := c.FileSystem.(interface{ SyncAll() error })
	if !ok {
		return fmt.Errorf("crash: served backend lacks SyncAll")
	}
	return sa.SyncAll()
}

// doubleApplied lists signatures that applied more than once.
func (c *servedCounter) doubleApplied() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for sig, n := range c.applied {
		if n > 1 {
			out = append(out, fmt.Sprintf("%s (applied %d times)", sig, n))
		}
	}
	sort.Strings(out)
	return out
}

// workloads returns the campaign's per-tenant workloads: TenantOps when
// set, otherwise Tenants (default 3) generated workloads of OpsPerTenant
// (default 12) operations each.
func (c *ServedCampaign) workloads() [][]Op {
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

// finalCheck verifies, per tenant, that the fully-resumed file system
// matches the model's end state exactly: every operation applied, none
// lost, none doubled — in every mode, because by now every operation has
// been acknowledged — and that the image under it is structurally sound.
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

func tenantsErr(tenants []*servedTenant) error {
	for _, t := range tenants {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

// RunServed executes one served campaign and verifies its oracles.
func RunServed(c ServedCampaign) (*ServedResult, error) {
	workloads := c.workloads()
	c.Tenants = len(workloads)
	env, err := newCrashStack(c.Mode)
	if err != nil {
		return nil, err
	}
	fs := env.FS
	res := &ServedResult{}

	// Setup: per-tenant subtree roots, then a journal-commit barrier
	// (create+fsync a marker) so every /t<i> is durable at any crash the
	// campaign arms — the per-tenant oracles verify subtrees, so the
	// subtree roots themselves must survive, and a cold re-attach after
	// the restart must find its session root to attach to.
	tenants := make([]*servedTenant, c.Tenants)
	for i := range tenants {
		root := fmt.Sprintf("/t%d", i)
		if err := fs.Mkdir(root, 0o755); err != nil {
			return nil, err
		}
		sys := compile(workloads[i])
		tenants[i] = &servedTenant{root: root, ops: workloads[i], sys: sys,
			model: buildModel(c.Mode, sys), leases: c.Leases}
	}
	mark, err := fs.OpenFile("/served-setup", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := mark.Sync(); err != nil {
		return nil, err
	}
	if err := mark.Close(); err != nil {
		return nil, err
	}
	res.BaselineEvents = env.Dev.Events()
	if c.CrashAtEvent > 0 && c.CrashAtEvent <= res.BaselineEvents {
		return nil, fmt.Errorf("crash: served crash event %d falls inside setup (baseline %d)",
			c.CrashAtEvent, res.BaselineEvents)
	}
	if c.SkipFence != nil {
		env.Dev.SetFenceFilter(c.SkipFence)
	}
	if c.Trace {
		env.Dev.SetTracing(true)
	}
	if c.CrashAtEvent > 0 {
		env.Dev.ArmCrash(c.CrashAtEvent, sim.NewRNG(mix(c.Seed, uint64(c.CrashAtEvent))))
	}

	srv := server.New(fs, server.Config{
		TokenSalt: mix(c.Seed, 0xA11CE),
		// A reply is only ever written while the durable image is still
		// live: once the armed crash fires, every reply is dropped and its
		// connection killed — the executed-but-unacknowledged window of a
		// real daemon death.
		FailReplies: func() bool { return env.Dev.CrashFired() },
		// Sim-clock cost and device fence deltas annotate each flight
		// record, so a violation's trace shows what each op persisted.
		OpClock:  env.Clock.Now,
		OpFences: env.Dev.FenceCount,
	})
	dial := newServedDialer(srv, env.Dev.CrashFired)

	var wg sync.WaitGroup
	for i := range tenants {
		t := tenants[i]
		td := &tenantDialer{d: dial, faults: c.WireFaults, cadence: c.FaultCadence,
			rng: sim.NewRNG(mix(c.Seed, uint64(i)^0xFA7))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.err = t.drive(td.redial)
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	// Monitor: wait for the armed crash to fire or for every tenant to
	// finish (an event at the very end may fire during the final detach
	// teardown, after the last acknowledgement — check once more).
	armed := c.CrashAtEvent > 0
	for {
		if armed && env.Dev.CrashFired() {
			res.Fired = true
			break
		}
		select {
		case <-finished:
		default:
			runtime.Gosched()
			continue
		}
		res.Fired = armed && env.Dev.CrashFired()
		break
	}

	if !res.Fired {
		<-finished
		srv.Close()
		env.Dev.SetFenceFilter(nil)
		res.Gen1 = srv.Stats()
		res.TotalEvents = env.Dev.Events()
		if err := tenantsErr(tenants); err != nil {
			return nil, err
		}
		if n := srv.ActiveLeases(); n != 0 {
			res.Violation = fmt.Sprintf("lease plane: %d leases survived server Close", n)
			res.Flight = srv.FlightReport()
			return res, nil
		}
		res.Violation = finalCheck(tenants, env)
		if res.Violation != "" {
			res.Flight = srv.FlightReport()
		}
		return res, nil
	}

	// The daemon dies mid-flight: block redials, tear the server down
	// (Close takes every session's executor lock, so no request is
	// mid-execution — and each one's reply has been sent or counted as
	// dropped — when the device image is finalized), snapshot each
	// tenant's acknowledged prefix, then crash and recover.
	dial.beginRestart()
	srv.Close()
	env.Dev.SetFenceFilter(nil)
	if c.Trace {
		res.Trace = env.Dev.Trace()
		env.Dev.SetTracing(false)
	}
	res.Gen1 = srv.Stats()
	if n := srv.ActiveLeases(); n != 0 {
		// Teardown revokes every session's leases; one outliving the
		// generation would hand a client a mapping onto a device image
		// that recovery is about to rewrite.
		res.Violation = fmt.Sprintf("lease plane: %d leases survived generation-1 teardown", n)
		res.Flight = srv.FlightReport()
		abortEarly := func() {
			dial.completeRestart(nil, errServedAborted)
			<-finished
		}
		abortEarly()
		return res, nil
	}
	for _, t := range tenants {
		res.AckedSys = append(res.AckedSys, int(t.acked.Load()))
	}
	abort := func() {
		dial.completeRestart(nil, errServedAborted)
		<-finished
	}
	if err := env.Dev.Crash(sim.NewRNG(mix(c.Seed, uint64(c.CrashAtEvent)) ^ 0xC4A5)); err != nil {
		abort()
		return nil, err
	}
	rec, report, vio := recover1(env)
	res.JournalReplayed = report.JournalTx
	if report.OpLog != nil {
		res.Replayed = report.OpLog.Replayed
	}
	if vio != "" {
		res.Violation = vio
		res.Flight = srv.FlightReport()
		abort()
		return res, nil
	}

	// Crash-point oracle: each tenant's recovered subtree against its own
	// model at its acknowledged prefix. interrupted=true — the single
	// outstanding request beyond the last ack may have executed partially
	// (or fully, with its reply suppressed).
	for i, t := range tenants {
		dur, err := captureSubtree(rec.FS, t.root)
		if err != nil {
			res.Violation = fmt.Sprintf("tenant %d: recovered subtree unreadable: %v", i, err)
			break
		}
		if v := checkGuarantee(t.model, res.AckedSys[i], true, dur); v != "" {
			res.Violation = fmt.Sprintf("tenant %d (after %d acked syscalls): %s",
				i, res.AckedSys[i], v)
			break
		}
	}
	if res.Violation != "" {
		// The generation-1 traces show what each tenant had in flight
		// when the image froze — the context a minimized reproducer
		// needs alongside the oracle's diff.
		res.Flight = srv.FlightReport()
		abort()
		return res, nil
	}

	// Recovered generation: a fresh token salt (stale generation-1 tokens
	// must read as unknown and fall back to cold attach), an exactly-once
	// counter on the backend, and no reply faults. Unblocked tenants
	// re-attach, replay, and finish.
	counter := &servedCounter{FileSystem: rec.FS}
	srv2 := server.New(counter, server.Config{
		TokenSalt: mix(c.Seed, 0xB0B2),
		OpClock:   env.Clock.Now,
		OpFences:  env.Dev.FenceCount,
	})
	dial.completeRestart(srv2, nil)
	<-finished
	srv2.Close()
	res.Gen2 = srv2.Stats()
	res.TotalEvents = env.Dev.Events()
	if err := tenantsErr(tenants); err != nil {
		// A tenant that cannot finish its workload against the recovered
		// generation is a serving failure, not a harness error: under
		// fault injection (skipped fences) the recovered image can be
		// corrupt in ways mount and the subtree oracle miss but replay
		// trips over. Record it like any breach so sweeps report and
		// minimize it instead of aborting.
		res.Violation = fmt.Sprintf("post-restart serving failed: %v", err)
		res.Flight = srv2.FlightReport()
		return res, nil
	}
	if dbl := counter.doubleApplied(); len(dbl) > 0 {
		res.Violation = "exactly-once: replayed operations applied twice on the recovered generation: " +
			strings.Join(dbl, "; ")
		res.Flight = srv2.FlightReport()
		return res, nil
	}
	res.Violation = finalCheck(tenants, rec)
	if res.Violation != "" {
		res.Flight = srv2.FlightReport()
	}
	return res, nil
}
