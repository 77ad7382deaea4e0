// Package logfs is a log-structured PM file-system engine: all metadata
// lives in DRAM and persists through an append-only metalog; file data
// lives in PM blocks tracked by extents. The kernel baselines of the
// SplitFS paper are instances of this engine with different persistence
// profiles (profiles.go):
//
//   - NovaStrict / NovaRelaxed: per-operation log entry plus persistent
//     tail update (2 cache lines, 2 fences); copy-on-write data in strict
//     mode, in-place data in relaxed mode.
//   - PMFS: fine-grained single-fence journaling, in-place synchronous
//     data, no data atomicity.
//
// The engine checkpoints its full metadata state into a snapshot area
// when the log fills, then resets the log; recovery loads the snapshot
// and replays the log suffix.
package logfs

import (
	"fmt"
	"sync"

	"splitfs/internal/alloc"
	"splitfs/internal/metalog"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Profile parameterizes the engine per file system.
type Profile struct {
	// Name returned by vfs.FileSystem.Name.
	Name string
	// FenceMode of metadata log appends.
	FenceMode metalog.FenceMode
	// PerOpCPU is charged for composing each metadata log record.
	PerOpCPU *sim.Row
	// WritePathCPU / ReadPathCPU are charged per data operation.
	WritePathCPU *sim.Row
	ReadPathCPU  *sim.Row
	// COW makes data writes copy-on-write (new blocks, then a log entry
	// remaps them), giving atomic data operations. Either way a write's
	// data is fenced before the call returns, and every operation is a
	// kernel trap.
	COW bool
}

// Config sizes the on-device regions.
type Config struct {
	// LogBytes is the metadata log region size (default 4 MB).
	LogBytes int64
	// SnapshotSlotBytes is the checkpoint slot size (default 1 MB).
	SnapshotSlotBytes int64
	// ReserveTail keeps the last bytes of the device out of the data
	// region (Strata places its private log there).
	ReserveTail int64
}

func (c *Config) fill() {
	if c.LogBytes == 0 {
		c.LogBytes = 4 << 20
	}
	if c.SnapshotSlotBytes == 0 {
		c.SnapshotSlotBytes = 1 << 20
	}
}

// inode is the DRAM representation of a file or directory.
type inode struct {
	ino      uint64
	isDir    bool
	nlink    uint32
	size     int64
	extents  alloc.ExtentMap
	children map[string]*inode // directories only
}

// Stats counts engine activity.
type Stats struct {
	Traps       int64
	DataReads   int64
	DataWrites  int64
	MetaOps     int64
	LogAppends  int64
	Checkpoints int64
}

// FS is a mounted logfs instance.
type FS struct {
	prof Profile
	cfg  Config
	dev  *pmem.Device
	clk  *sim.Clock

	mu      sync.Mutex
	log     *metalog.Log
	snap    *metalog.Snapshot
	bmp     *alloc.Bitmap
	root    *inode
	inodes  map[uint64]*inode
	nextIno uint64
	stats   Stats
	dataOff int64
}

var _ vfs.FileSystem = (*FS)(nil)

// New formats a device region for the engine and mounts it.
func New(dev *pmem.Device, prof Profile, cfg Config) *FS {
	cfg.fill()
	fs := newCommon(dev, prof, cfg)
	fs.log = metalog.New(dev, 0, cfg.LogBytes, sim.CatOpLog)
	fs.root = &inode{ino: 1, isDir: true, nlink: 2, children: map[string]*inode{}}
	fs.inodes = map[uint64]*inode{1: fs.root}
	fs.nextIno = 2
	// Persist an empty snapshot so Mount of a fresh device works.
	if err := fs.snap.Save(encodeState(fs)); err != nil {
		panic(fmt.Sprintf("logfs: initial snapshot: %v", err))
	}
	return fs
}

func newCommon(dev *pmem.Device, prof Profile, cfg Config) *FS {
	fs := &FS{prof: prof, cfg: cfg, dev: dev, clk: dev.Clock()}
	snapOff := cfg.LogBytes
	fs.snap = metalog.NewSnapshot(dev, snapOff, cfg.SnapshotSlotBytes, sim.CatPMMeta)
	fs.dataOff = snapOff + metalog.SnapshotSize(cfg.SnapshotSlotBytes)
	fs.dataOff = (fs.dataOff + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize
	// The allocator is DRAM-only; its state is rebuilt from the log at
	// mount, like NOVA's per-CPU free lists.
	fs.bmp = alloc.NewVolatile(fs.clk, fs.dataOff, fs.DataBlocks())
	return fs
}

// Mount recovers the engine from its snapshot and log.
func Mount(dev *pmem.Device, prof Profile, cfg Config) (*FS, int, error) {
	cfg.fill()
	fs := newCommon(dev, prof, cfg)
	state := fs.snap.LoadState()
	if state == nil {
		return nil, 0, fmt.Errorf("logfs(%s): no snapshot; device not formatted", prof.Name)
	}
	if err := decodeState(fs, state); err != nil {
		return nil, 0, err
	}
	var records [][]byte
	fs.log, records = metalog.Load(dev, 0, cfg.LogBytes, sim.CatOpLog)
	for _, rec := range records {
		if err := fs.replay(rec); err != nil {
			return nil, 0, err
		}
	}
	// Rebuild the allocator from the surviving extents.
	for _, in := range fs.inodes {
		for _, e := range in.extents {
			fs.bmp.MarkAllocated(e.Phys)
		}
	}
	return fs, len(records), nil
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return fs.prof.Name }

// Device returns the underlying device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// Stats snapshots the engine counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// FreeBlocks returns remaining data capacity.
func (fs *FS) FreeBlocks() int64 { return fs.bmp.FreeCount() }

// DataBlocks returns the data area's capacity: the device less the log
// and snapshot area below it and the reserved tail above it.
func (fs *FS) DataBlocks() int64 {
	return (fs.dev.Size() - fs.cfg.ReserveTail - fs.dataOff) / sim.BlockSize
}

func (fs *FS) trap() {
	fs.clk.Charge(sim.EngineTrap)
	fs.stats.Traps++
}

// appendRecord persists one metadata record, checkpointing when full.
// Caller holds fs.mu.
func (fs *FS) appendRecord(rec []byte) {
	fs.clk.Charge(fs.prof.PerOpCPU)
	fs.stats.LogAppends++
	if err := fs.log.Append(rec, fs.prof.FenceMode); err == nil {
		return
	}
	// Log full: checkpoint the whole state and reset.
	fs.checkpointLocked()
	if err := fs.log.Append(rec, fs.prof.FenceMode); err != nil {
		panic(fmt.Sprintf("logfs(%s): record larger than log: %v", fs.prof.Name, err))
	}
}

// checkpointLocked saves a snapshot and resets the log.
func (fs *FS) checkpointLocked() {
	if err := fs.snap.Save(encodeState(fs)); err != nil {
		panic(fmt.Sprintf("logfs(%s): checkpoint: %v", fs.prof.Name, err))
	}
	fs.log.Reset()
	fs.stats.Checkpoints++
}

// resolve walks a cleaned path. Caller holds fs.mu.
func (fs *FS) resolve(path string) (*inode, error) {
	cur := fs.root
	for _, name := range vfs.SplitPath(path) {
		if !cur.isDir {
			return nil, vfs.ErrNotDir
		}
		next, ok := cur.children[name]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// resolveDir returns the parent directory and base name. Caller holds
// fs.mu.
func (fs *FS) resolveDir(path string) (*inode, string, error) {
	dir, base := vfs.SplitDir(vfs.CleanPath(path))
	if base == "" {
		return nil, "", vfs.ErrInval
	}
	parent, err := fs.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir {
		return nil, "", vfs.ErrNotDir
	}
	return parent, base, nil
}

func (fs *FS) infoOf(in *inode) vfs.FileInfo {
	var blocks int64
	for _, e := range in.extents {
		blocks += e.Phys.Len
	}
	return vfs.FileInfo{Ino: in.ino, Size: in.size, Blocks: blocks, IsDir: in.isDir, Nlink: in.nlink}
}

// freeExtents releases an inode's data blocks.
func (fs *FS) freeExtents(in *inode) {
	for _, e := range in.extents {
		fs.bmp.Free(pmem.SrcForeground, e.Phys)
	}
	in.extents = nil
}
