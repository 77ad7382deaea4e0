// Package splitfs implements the paper's primary contribution: U-Split, a
// user-space library file system layered on the ext4 DAX kernel file
// system (K-Split, package ext4dax).
//
// Division of labour (§3.3):
//
//   - Data operations (read, overwrite) are served in user space through a
//     collection of memory-mappings — processor loads and non-temporal
//     stores, no kernel traps.
//   - Appends (and, in strict mode, overwrites) are redirected to
//     pre-allocated staging files and relinked into the target file on
//     fsync via the relink primitive — no data copies for block-aligned
//     ranges.
//   - Metadata operations (open, close, unlink, mkdir, ...) pass through
//     to K-Split, inheriting ext4's mature metadata path.
//
// Three consistency modes (§3.2, Table 3) per instance:
//
//	POSIX  — metadata consistency, atomic appends (ext4 DAX equivalent).
//	Sync   — + synchronous data and metadata ops (PMFS / NOVA-Relaxed).
//	Strict — + atomic operations via the optimized operation log
//	         (NOVA-Strict / Strata equivalent).
//
// Multiple instances with different modes can share one K-Split, as in
// the paper's multi-application deployments.
package splitfs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"splitfs/internal/ext4dax"
	"splitfs/internal/metalog"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Mode is the consistency mode of a U-Split instance.
type Mode int

const (
	// POSIX provides metadata consistency plus atomic appends.
	POSIX Mode = iota
	// Sync additionally makes every operation synchronous.
	Sync
	// Strict additionally makes every operation atomic.
	Strict
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case POSIX:
		return "posix"
	case Sync:
		return "sync"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the tunable parameters of §3.6.
type Config struct {
	// Mode selects the consistency mode (default POSIX).
	Mode Mode
	// MmapBytes is the size of each memory-mapping in the collection of
	// mmaps (§3.6: 2 MB to 512 MB, default 2 MB to enable huge pages).
	MmapBytes int64
	// StagingFiles is the number of staging files pre-allocated at
	// startup (§3.6: default 10).
	StagingFiles int
	// StagingFileBytes is the size of each staging file (paper: 160 MB;
	// scaled default here 4 MB).
	StagingFileBytes int64
	// StagingChunkBytes is the per-file reservation unit inside a staging
	// file (default 256 KB).
	StagingChunkBytes int64
	// OpLogBytes is the strict-mode operation log size (paper: 128 MB;
	// scaled default here 8 MB). Sync mode, which logs metadata operations
	// only, runs on 1/32 of it.
	OpLogBytes int64
	// DisableHugePages turns off 2 MB mappings (for the §4 ablation).
	DisableHugePages bool
	// DisableStaging routes appends through the kernel (for the Fig 3
	// technique breakdown).
	DisableStaging bool
	// DisableRelink makes fsync copy staged data through the kernel
	// instead of relinking (for the Fig 3 technique breakdown).
	DisableRelink bool
	// StageInDRAM buffers staged writes in DRAM instead of PM staging
	// files — the design alternative §4 discusses and rejects ("the cost
	// of copying data from DRAM to PM on fsync() overshadowed the
	// benefit"). fsync must then copy every byte through the kernel.
	// Only meaningful for POSIX mode; it forfeits strict-mode recovery.
	StageInDRAM bool
}

func (c *Config) fill() {
	if c.MmapBytes == 0 {
		c.MmapBytes = 2 << 20
	}
	if c.StagingFiles == 0 {
		c.StagingFiles = 10
	}
	if c.StagingFileBytes == 0 {
		c.StagingFileBytes = 4 << 20
	}
	if c.StagingChunkBytes == 0 {
		c.StagingChunkBytes = 256 << 10
	}
	if c.OpLogBytes == 0 {
		c.OpLogBytes = 8 << 20
	}
}

// Stats counts U-Split activity.
type Stats struct {
	UserReads    int64 // reads served from user space
	UserWrites   int64 // overwrites served from user space
	Appends      int64 // staged appends
	StagedBytes  int64 // bytes written through the staging path
	Relinks      int64 // relink invocations
	RelinkBlocks int64 // blocks moved without copying
	CopiedBytes  int64 // unaligned bytes copied through the kernel at fsync
	LogEntries   int64
	Checkpoints  int64 // op-log checkpoints
	MmapHits     int64
	MmapMisses   int64
}

// fsStats are the live counters behind Stats, atomics so the lock-free
// data path can count without any process-wide lock.
type fsStats struct {
	userReads    atomic.Int64
	userWrites   atomic.Int64
	appends      atomic.Int64
	stagedBytes  atomic.Int64
	relinks      atomic.Int64
	relinkBlocks atomic.Int64
	copiedBytes  atomic.Int64
	logEntries   atomic.Int64
	checkpoints  atomic.Int64
	mmapHits     atomic.Int64
	mmapMisses   atomic.Int64
}

// FS is a U-Split instance.
//
// Lock hierarchy, outermost first (full discussion in DESIGN.md):
//
//		wmu → mu → ofile.mu → {amu, stagingPool.mu, mmapCache.mu}
//		    → ext4dax locks → pmem shard locks
//
//	  - wmu serializes the operations that log: every mutating operation
//	    in strict mode, the metadata operations in sync mode. The shared
//	    operation log orders entries by a monotone sequence that relink
//	    watermarks and the metadata stamp are compared against, so log
//	    appends and the changes they describe — staged state, K-Split's
//	    namespace — must be mutually ordered. An operation reserves its
//	    log room as it takes wmu (lockStrict, lockMeta), which is where a
//	    full log is checkpointed — before any lock below is held.
//	  - mu guards only the open-file table (files map and refcounts).
//	  - ofile.mu (read/write) guards one file's staged overlay and sizes;
//	    reads and staged appends to different files never share a lock.
//	  - amu guards the attribute cache.
//
// Relink batches of distinct files take no process-wide lock: each batch
// holds a K-Split batch handle, which pins the shared running journal
// transaction open, and group commit (one leader commits the transaction
// for every batch that joined it) preserves per-batch atomicity — jbd2's
// "many handles, one transaction" rule.
//
// The lockrank chains below declare DESIGN.md's "Lock hierarchy" for
// the lockorder analyzer; the three level-4 locks (amu, stagingpool,
// mmapcache) are mutual siblings, each between ofile and ext4fs.
//
// +lockrank:order wmu < fstable < ofile < amu < ext4fs
// +lockrank:order ofile < stagingpool < ext4fs
// +lockrank:order ofile < mmapcache < ext4fs
type FS struct {
	kfs  *ext4dax.FS
	dev  *pmem.Device
	clk  *sim.Clock
	cfg  Config
	mode Mode

	// The operation log and what orders its entries: recovery compares
	// every record's sequence number against one stamp. wmu serializes
	// the logging operations.
	wmu   sync.Mutex   // +lockrank:wmu
	olog  *metalog.Log // the operation log; nil in POSIX mode
	opSeq uint64       // monotone operation sequence; guarded by wmu
	// unlockLog is wmu.Unlock, taken as a method value once: lockLog
	// hands it to every logging operation, and a fresh method value is a
	// closure allocated per call.
	unlockLog func()
	// metaBuf is logMeta's record encoding; guarded by wmu.
	metaBuf []byte

	// Open-file table.
	mu    sync.RWMutex      // +lockrank:fstable
	files map[uint64]*ofile // live open files by inode

	// Attribute cache.
	amu   sync.Mutex // +lockrank:amu
	attrs map[string]vfs.FileInfo

	staging *stagingPool
	mmaps   *mmapCache
	stats   fsStats
}

var _ vfs.FileSystem = (*FS)(nil)

// ofile is the shared open-file description U-Split keeps per inode
// (§3.5: one offset per open file, dup'd descriptors share it).
//
// mu guards size, ksize, staged, active, and path; refs is guarded by
// FS.mu (it belongs to the open-file table).
type ofile struct {
	ino uint64
	kf  *ext4dax.File

	mu     sync.RWMutex // +lockrank:ofile
	path   string
	size   int64 // U-Split's view, including staged appends
	ksize  int64 // K-Split's view (what has been relinked)
	staged []stagedRange
	active *stagingChunk // current append region
	// logSeq is the highest strict-mode op-log sequence logged for this
	// file (guarded by mu, written under mu+wmu). A relink advances the
	// inode's recovery watermark to exactly this value, which covers
	// every entry the relink absorbs without the relink needing wmu —
	// that independence is what lets an fsync relink without serializing
	// against strict-mode writers.
	logSeq uint64

	// mapEpoch counts overlay remap events: a staged write shadowing
	// already-visible bytes, a truncate, and a relink that pops staged
	// ranges (their staging blocks are moved away or recycled). It is
	// bumped under of.mu before the stale bytes can be reused and read
	// lock-free by lease holders validating seqlock-style; together with
	// the kernel inode's own epoch it forms the file's mapping epoch
	// (see File.MapEpoch).
	mapEpoch atomic.Uint64

	refs     int  // open handles; guarded by FS.mu
	kfClosed bool // kernel handle retired (unique last closer); FS.mu
}

// stagedRange maps a file range onto a staging file — or onto a DRAM
// buffer in the StageInDRAM ablation.
type stagedRange struct {
	fileOff int64
	length  int64
	sf      *stagingFile
	sfOff   int64
	dram    []byte // non-nil in the StageInDRAM configuration
}

// newFS is an instance's volatile state, as New and RecoverFS start from
// it: no staging pool and no operation log yet.
func newFS(kfs *ext4dax.FS, cfg Config) *FS {
	cfg.fill()
	fs := &FS{
		kfs:   kfs,
		dev:   kfs.Device(),
		clk:   kfs.Device().Clock(),
		cfg:   cfg,
		mode:  cfg.Mode,
		files: make(map[uint64]*ofile),
		attrs: make(map[string]vfs.FileInfo),
		// The operation sequence continues past every watermark and
		// journal stamp ever issued on this K-Split, so that a stale one —
		// a file's, or the stamp of a log since zeroed — can never mask an
		// entry logged from here on.
		opSeq: kfs.MaxUserWatermark(),
	}
	fs.unlockLog = fs.wmu.Unlock
	fs.mmaps = newMmapCache(fs)
	return fs
}

// New creates a U-Split instance over a mounted K-Split, pre-allocating
// its staging files and (in sync and strict mode) its operation log.
func New(kfs *ext4dax.FS, cfg Config) (*FS, error) {
	fs := newFS(kfs, cfg)
	var err error
	fs.staging, err = newStagingPool(fs)
	if err != nil {
		return nil, fmt.Errorf("splitfs: staging pool: %w", err)
	}
	if fs.mode != POSIX {
		fs.olog, err = newOpLog(fs)
		if err != nil {
			return nil, fmt.Errorf("splitfs: operation log: %w", err)
		}
	}
	// Make the staging files and operation log durable before any data is
	// staged into them: recovery depends on their extents being owned.
	if err := kfs.CommitMeta(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Close is the polite shutdown: it makes every open file's staged data
// durable.
func (fs *FS) Close() error { return fs.SyncAll() }

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "splitfs-" + fs.mode.String() }

// Mode returns the instance's consistency mode.
func (fs *FS) Mode() Mode { return fs.mode }

// KFS exposes the kernel file system (for tests and tooling).
func (fs *FS) KFS() *ext4dax.FS { return fs.kfs }

// Stats snapshots the U-Split counters.
func (fs *FS) Stats() Stats {
	return Stats{
		UserReads:    fs.stats.userReads.Load(),
		UserWrites:   fs.stats.userWrites.Load(),
		Appends:      fs.stats.appends.Load(),
		StagedBytes:  fs.stats.stagedBytes.Load(),
		Relinks:      fs.stats.relinks.Load(),
		RelinkBlocks: fs.stats.relinkBlocks.Load(),
		CopiedBytes:  fs.stats.copiedBytes.Load(),
		LogEntries:   fs.stats.logEntries.Load(),
		Checkpoints:  fs.stats.checkpoints.Load(),
		MmapHits:     fs.stats.mmapHits.Load(),
		MmapMisses:   fs.stats.mmapMisses.Load(),
	}
}

// MemoryUsage estimates U-Split's DRAM footprint in bytes (§5.10).
func (fs *FS) MemoryUsage() int64 {
	fs.mu.RLock()
	var b int64
	for _, of := range fs.files {
		of.mu.RLock()
		b += 200 + int64(len(of.path)) + int64(len(of.staged))*48
		of.mu.RUnlock()
	}
	fs.mu.RUnlock()
	fs.amu.Lock()
	b += int64(len(fs.attrs)) * 96
	fs.amu.Unlock()
	b += fs.mmaps.memoryUsage()
	b += fs.staging.memoryUsage()
	if fs.olog != nil {
		b += 64 // DRAM tail + bookkeeping
	}
	return b
}

func (fs *FS) bookkeep() {
	fs.clk.Charge(sim.CatCPU, sim.USplitBookkeepNs)
}

// lockStrict takes the writer lock for an operation only strict mode logs
// (writes, opens and closes of existing files) and reserves need bytes of
// operation log for the entries it will append, which is where a full log
// is checkpointed: the caller holds no file lock yet and has staged
// nothing. In POSIX and sync modes such operations on different files run
// fully in parallel and this is a no-op. Returns the unlock function, or
// the error that kept the log from making room — the lock is then not held.
func (fs *FS) lockStrict(need int64) (func(), error) {
	if fs.mode != Strict {
		return func() {}, nil
	}
	return fs.lockLog(need)
}

// lockMeta is lockStrict for a metadata operation, which sync mode logs
// too: taking wmu there as well makes log order equal K-Split order, the
// order recovery redoes the records in. A no-op in POSIX mode.
func (fs *FS) lockMeta(need int64) (func(), error) {
	if fs.mode == POSIX {
		return func() {}, nil
	}
	return fs.lockLog(need)
}

func (fs *FS) lockLog(need int64) (func(), error) {
	fs.wmu.Lock()
	if err := fs.reserveLog(need); err != nil {
		fs.wmu.Unlock()
		return nil, err
	}
	return fs.unlockLog, nil
}

// stampedMeta runs one K-Split metadata call — op, which reports whether
// it changed anything — for an operation that sync and strict mode make
// synchronous (Table 3) without a journal commit: the caller appends the
// operation's redo record to the op log, one fence, once the call has
// succeeded, and K-Split's running transaction commits whenever it next
// would anyway. Recovery then has to know exactly which records the
// committed journal prefix already holds. So the operation's sequence
// number becomes the op log's journal stamp inside the same transaction as
// the call's effects: a batch handle keeps the transaction from committing
// between the two (the size-threshold commit the call would otherwise end
// with waits for the next operation), and the stamp travels in that
// transaction's commit record — no block of its own, no image. Records at
// or below the recovered stamp are in the image; records above it are not,
// and are redone in order (replayMeta). op is told the sequence number it
// will get if it changes anything, for what else it has to write under the
// same handle.
//
// It returns the sequence number for the record, 0 when there is none to
// write: POSIX mode, a failed call, or one that changed nothing. Caller
// holds wmu (lockMeta).
func (fs *FS) stampedMeta(op func(seq uint64) (changed bool, err error)) (uint64, error) {
	if fs.mode == POSIX {
		_, err := op(0)
		return 0, err
	}
	b := fs.kfs.BeginBatch()
	defer b.End()
	seq := fs.opSeq + 1
	changed, err := op(seq)
	if err != nil || !changed {
		return 0, err
	}
	fs.opSeq = seq
	b.SetStamp(int(fs.mode), seq)
	return seq, nil
}

// overlapsAny reports whether any staged range intersects [off, off+n)
// without allocating. Caller holds of.mu.
func (of *ofile) overlapsAny(off, n int64) bool {
	end := off + n
	for _, s := range of.staged {
		if s.fileOff < end && off < s.fileOff+s.length {
			return true
		}
	}
	return false
}

// overlaps returns the staged ranges intersecting [off, off+n), oldest
// first. Caller holds of.mu.
func (of *ofile) overlaps(off, n int64) []stagedRange {
	var out []stagedRange
	end := off + n
	for _, s := range of.staged {
		if s.fileOff < end && off < s.fileOff+s.length {
			out = append(out, s)
		}
	}
	return out
}

// addStaged records a staged write, merging with the previous range when
// both file offsets and staging bytes are contiguous (consecutive appends
// into one relink run). Returns true when a new overlay entry was
// appended (the caller then takes a staging-file reference for it) and
// false when the write merged into the previous entry. Caller holds
// of.mu.
func (of *ofile) addStaged(r stagedRange) bool {
	if n := len(of.staged); n > 0 {
		last := &of.staged[n-1]
		if last.fileOff+last.length == r.fileOff &&
			last.sf == r.sf && last.sfOff+last.length == r.sfOff {
			last.length += r.length
			return false
		}
	}
	of.staged = append(of.staged, r)
	return true
}
