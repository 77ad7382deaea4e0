// Package splitfs is the public facade of the SplitFS reproduction: a
// persistent-memory file-system stack, entirely simulated in Go, that
// implements the system from
//
//	Kadekodi, Lee, Kashyap, Kim, Kolli, Chidambaram.
//	"SplitFS: Reducing Software Overhead in File Systems for Persistent
//	Memory", SOSP 2019.
//
// The stack comprises a PM device emulator with Optane-calibrated costs
// and a crash/persistence model, the ext4 DAX kernel file system with the
// relink extent-swap primitive (K-Split), the U-Split user-space library
// file system with three consistency modes, and the baselines the paper
// compares against (PMFS, NOVA strict/relaxed, Strata).
//
// Quick start:
//
//	stack, _ := splitfs.NewStack(splitfs.StackConfig{Mode: splitfs.Strict})
//	f, _ := vfs.Create(stack.FS, "/hello")
//	f.Write([]byte("persistent"))
//	f.Sync() // relink: staged data moves into the file without a copy
//
// See examples/ for complete programs and cmd/splitbench for the paper's
// evaluation tables.
package splitfs

import (
	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// Re-exported consistency modes (§3.2, Table 3).
const (
	POSIX  = splitfs.POSIX
	Sync   = splitfs.Sync
	Strict = splitfs.Strict
)

// Mode re-exports the U-Split consistency mode type.
type Mode = splitfs.Mode

// FS re-exports the U-Split file system type.
type FS = splitfs.FS

// StackConfig configures a full SplitFS stack on a fresh simulated PM
// device.
type StackConfig struct {
	// DeviceBytes is the PM module size (default 256 MB).
	DeviceBytes int64
	// Mode is the consistency mode (default POSIX).
	Mode Mode
	// TrackPersistence enables Crash() on the device. It costs an undo
	// slot per modified-but-unfenced cache line, kept in a 4 KB page per
	// frame that holds one, not a second copy of the device.
	TrackPersistence bool
	// USplit tunables; zero values take the §3.6 defaults.
	USplit splitfs.Config
	// KSplit (ext4 DAX) format parameters.
	KSplit ext4dax.Config
}

// Stack is a ready-to-use SplitFS instance with access to every layer.
type Stack struct {
	Device *pmem.Device
	Clock  *sim.Clock
	KFS    *ext4dax.FS
	FS     *splitfs.FS
}

// NewStack builds a device, formats K-Split, and mounts a U-Split
// instance over it.
func NewStack(cfg StackConfig) (*Stack, error) {
	st, err := stack.New(stack.SplitFSKind(cfg.Mode), stack.Spec{
		DevBytes:         cfg.DeviceBytes,
		TrackPersistence: cfg.TrackPersistence,
		TrackWear:        true,
		KSplit:           cfg.KSplit,
		USplit:           cfg.USplit,
	})
	if err != nil {
		return nil, err
	}
	return facade(st), nil
}

func facade(st *stack.Stack) *Stack {
	fs := st.Base.(*splitfs.FS)
	return &Stack{Device: st.Dev, Clock: st.Clock, KFS: fs.KFS(), FS: fs}
}

// Crash simulates power failure (the device must have been built with
// TrackPersistence). rngSeed 0 drops all unfenced lines; otherwise
// unfenced lines tear at 8-byte granularity.
func (s *Stack) Crash(rngSeed uint64) error {
	var rng *sim.RNG
	if rngSeed != 0 {
		rng = sim.NewRNG(rngSeed)
	}
	return s.Device.Crash(rng)
}

// Recover remounts the crashed device: ext4 DAX journal replay followed
// by U-Split operation-log replay (§5.3), with the default U-Split
// tunables. It returns a fresh stack over the same device.
func (s *Stack) Recover(mode Mode) (*Stack, *splitfs.RecoveryReport, error) {
	crashed := stack.Stack{Kind: stack.SplitFSKind(mode), Clock: s.Clock, Dev: s.Device}
	st, rec, err := crashed.Recover()
	if err != nil {
		return nil, nil, err
	}
	return facade(st), rec.OpLog, nil
}

// File re-exports the POSIX-shaped file handle interface.
type File = vfs.File

// FileSystem re-exports the file-system interface all five
// implementations share.
type FileSystem = vfs.FileSystem
