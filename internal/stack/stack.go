// Package stack is the one place that knows how a named file-system
// stack is put on a simulated PM device: which layers a kind is made of,
// how they are sized, how the stack is served through the session/RPC
// layer, how it is remounted after a crash, and where its counters live.
// The crash engine, the bench harness, the root facade and the cmd/
// binaries all construct through New, so "all eight backends" means the
// same eight everywhere (the paper's §5.1 line-up: ext4 DAX, the three
// SplitFS modes over one K-Split, NOVA strict/relaxed, PMFS, Strata).
package stack

import (
	"fmt"
	"slices"
	"strings"

	"splitfs/internal/ext4dax"
	"splitfs/internal/logfs"
	"splitfs/internal/obs"
	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/strata"
	"splitfs/internal/vfs"
)

// Kinds returns the eight kind names, reference (ext4-dax) first. The
// returned slice is fresh; callers may mutate it.
func Kinds() []string {
	return []string{
		"ext4-dax",
		"splitfs-posix", "splitfs-sync", "splitfs-strict",
		"nova-strict", "nova-relaxed", "pmfs", "strata",
	}
}

// A kind name may carry one wrapper prefix: "served:<kind>" routes every
// operation through an internal/server session on the deterministic
// loopback transport; "served-lease:<kind>" additionally turns the
// zero-copy lease plane on. The names are the CLI and metric-row vocabulary;
// Name and Parse are the only code that spells the prefixes.
const (
	servedPrefix      = "served:"
	servedLeasePrefix = "served-lease:"
)

// Name composes the stack name Parse takes apart. leases implies served.
func Name(base string, served, leases bool) string {
	switch {
	case leases:
		return servedLeasePrefix + base
	case served:
		return servedPrefix + base
	}
	return base
}

// SplitFSKind names the SplitFS kind running in mode.
func SplitFSKind(mode splitfs.Mode) string { return "splitfs-" + mode.String() }

// Parse splits a stack name into its base kind and wrapper. Unknown
// kinds and nested wrappers are errors.
func Parse(name string) (base string, served, leases bool, err error) {
	base = name
	if b, ok := strings.CutPrefix(name, servedLeasePrefix); ok {
		base, served, leases = b, true, true
	} else if b, ok := strings.CutPrefix(name, servedPrefix); ok {
		base, served = b, true
	}
	// A nested wrapper leaves a prefix on base, which is no kind either.
	if !slices.Contains(Kinds(), base) {
		return "", false, false, fmt.Errorf("stack: unknown kind %q (have %v)", name, Kinds())
	}
	return base, served, leases, nil
}

// Spec sizes one stack: the device, and each layer's own configuration.
// Zero fields take the layers' defaults (and a 256 MB device); a kind
// ignores the layers it does not have.
type Spec struct {
	// DevBytes is the PM device capacity (default 256 MB).
	DevBytes int64
	// TrackPersistence enables Crash on the device; TrackWear its
	// per-line write counts.
	TrackPersistence bool
	TrackWear        bool

	// KSplit formats ext4 DAX (ext4-dax and the splitfs kinds).
	KSplit ext4dax.Config
	// USplit configures the splitfs kinds; its Mode is set by the kind.
	USplit splitfs.Config
	// Log sizes the log-structured engines' area (nova-*, pmfs, and
	// strata's shared area).
	Log logfs.Config
	// PrivateLogBytes is strata's per-process log.
	PrivateLogBytes int64
}

// Small is the sizing for short traces on a 32 MB device: what the crash
// campaigns and the differential suite run on, and the base the bench
// cells scale up from.
var Small = Spec{
	DevBytes:        32 << 20,
	KSplit:          ext4dax.Config{MaxInodes: 512},
	USplit:          splitfs.Config{StagingFiles: 4, StagingFileBytes: 1 << 20, OpLogBytes: 256 << 10},
	Log:             logfs.Config{LogBytes: 4 << 20, SnapshotSlotBytes: 1 << 20},
	PrivateLogBytes: 2 << 20,
}

// Stack is one constructed file system with its device and clock.
type Stack struct {
	// Kind is the stack's name, wrapper prefix included once served.
	Kind  string
	Clock *sim.Clock
	Dev   *pmem.Device
	// FS is what callers drive: Base itself, or the loopback client of a
	// served stack.
	FS vfs.FileSystem
	// Base is always the unwrapped file system — the counters (journal
	// commits, relinks) live there, not on an RPC proxy.
	Base vfs.FileSystem
	// Server is the service instance of a served stack, nil otherwise.
	Server *server.Server
	// Spec is what the stack was built with; Recover remounts with it.
	Spec Spec
}

// New builds the named stack on a fresh device sized by spec.
func New(name string, spec Spec) (*Stack, error) {
	base, served, leases, err := Parse(name)
	if err != nil {
		return nil, err
	}
	if spec.DevBytes == 0 {
		spec.DevBytes = 256 << 20
	}
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: spec.DevBytes, Clock: clk,
		TrackPersistence: spec.TrackPersistence, TrackWear: spec.TrackWear})
	s := &Stack{Kind: base, Clock: clk, Dev: dev, Spec: spec}
	if s.Base, err = format(base, dev, spec); err != nil {
		return nil, err
	}
	s.FS = s.Base
	if served {
		if err := s.Serve(leases); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// splitfsMode reports the U-Split mode of a splitfs kind.
func splitfsMode(base string) (splitfs.Mode, bool) {
	for _, m := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		if base == SplitFSKind(m) {
			return m, true
		}
	}
	return 0, false
}

// LogProfile returns the logfs engine instance kind is, its COW set
// from kind's row of Table 3; ok is false for other kinds.
func LogProfile(kind string) (prof logfs.Profile, ok bool) {
	prof, ok = map[string]logfs.Profile{"nova-strict": logfs.NovaStrict, "nova-relaxed": logfs.NovaRelaxed,
		"pmfs": logfs.PMFS}[kind]
	prof.COW = ok && GuaranteeOf(kind).AtomicData
	return prof, ok
}

// format puts base's layers on a fresh device.
func format(base string, dev *pmem.Device, spec Spec) (vfs.FileSystem, error) {
	if prof, ok := LogProfile(base); ok {
		return logfs.New(dev, prof, spec.Log), nil
	}
	if base == "strata" {
		return strata.New(dev, strata.Config{PrivateLogBytes: spec.PrivateLogBytes, Shared: spec.Log}), nil
	}
	kfs, err := ext4dax.Mkfs(dev, spec.KSplit)
	if err != nil {
		return nil, err
	}
	mode, ok := splitfsMode(base)
	if !ok {
		return kfs, nil // ext4-dax
	}
	spec.USplit.Mode = mode
	fs, err := splitfs.New(kfs, spec.USplit)
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// Serve wraps the stack in a loopback session: FS becomes the client,
// Base stays the file system behind the service. Exactly one level of
// wrapping is allowed. Backends without the vfs.Mappable capability
// still serve with leases on — every grant fails and the client stays on
// the copy path, which the differential suite pins.
func (s *Stack) Serve(leases bool) error {
	if s.Server != nil {
		return fmt.Errorf("stack: %s is already served", s.Kind)
	}
	// Op cost and fence feeds come from the simulated clock and device,
	// so every served metric snapshot — histograms included — is an
	// exact function of the workload (pinnable, diffable).
	srv := server.New(s.Base, server.Config{OpClock: s.Clock.Now, OpFences: s.Dev.FenceCount})
	client, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: leases})
	if err != nil {
		return err
	}
	s.Kind, s.Server, s.FS = Name(s.Kind, true, leases), srv, client
	return nil
}

// Recovery reports what one remount replayed.
type Recovery struct {
	// JournalTx counts K-Split journal transactions replayed at mount.
	JournalTx int
	// OpLog is U-Split's operation-log replay report (§5.3); nil for the
	// kinds without U-Split.
	OpLog *splitfs.RecoveryReport
}

// Recover remounts the stack's device — after Dev.Crash, typically —
// and returns a fresh, unserved stack over the same device and clock.
// Each kind mounts with its own Mount: ext4 DAX replays its journal (then
// U-Split recovers, for the splitfs kinds), a log engine loads its
// snapshot and replays its log, and strata does that for its shared area
// and then replays its private log.
func (s *Stack) Recover() (*Stack, Recovery, error) {
	base, _, _, err := Parse(s.Kind)
	if err != nil {
		return nil, Recovery{}, err
	}
	r := &Stack{Kind: base, Clock: s.Clock, Dev: s.Dev, Spec: s.Spec}
	var rec Recovery
	prof, isLog := LogProfile(base)
	switch {
	case isLog:
		r.Base, _, err = logfs.Mount(s.Dev, prof, s.Spec.Log)
	case base == "strata":
		r.Base, _, err = strata.Mount(s.Dev, strata.Config{PrivateLogBytes: s.Spec.PrivateLogBytes, Shared: s.Spec.Log})
	default:
		var kfs *ext4dax.FS
		kfs, rec.JournalTx, err = ext4dax.Mount(s.Dev, s.Spec.KSplit)
		r.Base = kfs
		if mode, isSplit := splitfsMode(base); isSplit && err == nil {
			cfg := s.Spec.USplit
			cfg.Mode = mode
			if r.Base, rec.OpLog, err = splitfs.RecoverFS(kfs, cfg); err != nil {
				return nil, rec, fmt.Errorf("recovery failed: %w", err)
			}
		}
	}
	if err != nil {
		return nil, rec, fmt.Errorf("remount failed: %w", err)
	}
	r.FS = r.Base
	return r, rec, nil
}

// Check runs the stack's structural image check: K-Split's
// (ext4dax.FS.Check) for the kinds built on it — under U-Split with the
// op log held against its stamp (splitfs.FS.Check) — and for the log
// engines (strata's shared area among them) block accounting: every
// block of the data area is free or held by exactly one named file,
// FuzzRelinkModel's conservation (FreeBlocks() plus every file's Blocks)
// on the engine's own namespace. The log and snapshot area lie below the
// data area, outside its bitmap; a block held twice cannot outlive a
// crash, as Mount's rebuild of the bitmap from the files refuses it.
func (s *Stack) Check() error {
	var lfs *logfs.FS
	switch fs := s.Base.(type) {
	case *splitfs.FS:
		return fs.Check()
	case *ext4dax.FS:
		_, err := fs.Check()
		return err
	case *logfs.FS:
		lfs = fs
	case *strata.FS:
		lfs = fs.Shared()
	}
	held := int64(0)
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := lfs.ReadDir(dir)
		for i := 0; err == nil && i < len(ents); i++ {
			p := strings.TrimSuffix(dir, "/") + "/" + ents[i].Name
			var info vfs.FileInfo
			if info, err = lfs.Stat(p); err == nil && info.IsDir {
				err = walk(p)
			}
			held += info.Blocks
		}
		return err
	}
	if err := walk("/"); err != nil {
		return err
	}
	if free, total := lfs.FreeBlocks(), lfs.DataBlocks(); free+held != total {
		return fmt.Errorf("%s: %d blocks free and %d held by files, of %d in the data area", s.Kind, free, held, total)
	}
	return nil
}

// Counters is one snapshot of every deterministic counter the bench
// cells report: simulated time, device traffic, and the per-engine
// commit/append/relink counts (zero on the kinds that have none).
type Counters struct {
	Clock      sim.Breakdown
	Dev        pmem.Stats
	Commits    int64 // ext4-dax jbd2 transaction commits (splitfs: its K-Split)
	LogAppends int64 // per-op log appends of the log-structured engines
	Relinks    int64
	Reclaimed  int64 // staging files reclaimed
}

// Counters snapshots the stack's counters.
func (s *Stack) Counters() Counters {
	c := Counters{Clock: s.Clock.Snapshot(), Dev: s.Dev.Stats()}
	switch fs := s.Base.(type) {
	case *splitfs.FS:
		c.Commits = fs.KFS().Stats().Commits
		c.Relinks = fs.Stats().Relinks
		c.Reclaimed = int64(fs.StagingFilesReclaimed())
	case *ext4dax.FS:
		c.Commits = fs.Stats().Commits
	case *logfs.FS: // nova-*, pmfs
		c.LogAppends = fs.Stats().LogAppends
	case *strata.FS:
		c.LogAppends = fs.Stats().LogAppends
	}
	return c
}

// RegisterObs exports the whole stack into an obs registry: the device's
// per-source counters, the file system's own stats (for the kinds that
// export them), and — once served — the server's wire/op gauges.
func (s *Stack) RegisterObs(r *obs.Registry) {
	s.Dev.RegisterObs(r)
	switch fs := s.Base.(type) {
	case *splitfs.FS:
		fs.RegisterObs(r)
	case *ext4dax.FS:
		fs.RegisterObs(r)
	}
	if s.Server != nil {
		s.Server.RegisterObs(r)
	}
}
