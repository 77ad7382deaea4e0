package ext4dax

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"splitfs/internal/alloc"
	"splitfs/internal/journal"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Config holds format-time parameters.
type Config struct {
	// JournalBlocks is the size of the JBD2 journal region (default 256
	// blocks = 1 MB).
	JournalBlocks int64
	// MaxInodes bounds the inode table (default 4096).
	MaxInodes int64
}

func (c *Config) fill() {
	if c.JournalBlocks == 0 {
		c.JournalBlocks = 256
	}
	if c.MaxInodes == 0 {
		c.MaxInodes = 4096
	}
}

// Stats count file-system level activity.
type Stats struct {
	Traps      int64 // kernel entries
	DataReads  int64
	DataWrites int64
	MetaOps    int64
	Commits    int64
	// Group-commit merge accounting (CommitUpTo): GCLeaders counts
	// callers that committed the transaction themselves, GCFollowers
	// callers whose transaction a concurrent leader had already
	// committed — the jbd2-style coalescing win.
	GCLeaders   int64
	GCFollowers int64
}

// fsStats are the live counters behind Stats; atomics so the lock-free
// read path can count traps and reads without fs.mu.
type fsStats struct {
	traps       atomic.Int64
	dataReads   atomic.Int64
	dataWrites  atomic.Int64
	metaOps     atomic.Int64
	commits     atomic.Int64
	gcLeaders   atomic.Int64
	gcFollowers atomic.Int64
}

// FS is the ext4 DAX file system (K-Split).
//
// Locking: fs.mu guards the namespace (icache, directories), allocators'
// journaling, and the running transaction. Per-inode locks (inode.mu) let
// data reads proceed without fs.mu; mutators of file extents/size hold
// both, fs.mu first (see DESIGN.md).
type FS struct {
	dev *pmem.Device
	clk *sim.Clock
	lay Layout

	// K-Split's half of DESIGN.md's "Lock hierarchy": fs.mu nests inside
	// every U-Split lock and outside inode.mu and the device shards.
	//
	// +lockrank:order ext4fs < inode < shard
	mu sync.Mutex // +lockrank:ext4fs
	// src is the event source the writes of the call holding mu carry
	// (lock), and the foreground's while mu is free (unlock, waitIdle).
	src    pmem.EventSource
	jnl    *journal.Journal
	iBmp   *alloc.Bitmap // inode numbers (block numbers double as inos)
	bBmp   *alloc.Bitmap // data blocks
	icache map[uint64]*inode
	tx     *journal.Tx
	// txID identifies the running transaction (valid while tx != nil);
	// ids are assigned from nextTxID in beginTx and are strictly
	// monotone. doneTxID is the highest id whose transaction committed.
	// Together they implement jbd2-style group commit: a mutation noted
	// under id T is durable exactly when doneTxID >= T, so a committer
	// that finds its id already covered (another fsync's commit — the
	// group-commit leader — absorbed it) returns without issuing any
	// journal IO or fences of its own. See CommitUpTo.
	txID     uint64
	nextTxID uint64
	doneTxID uint64
	// reserved is the credit open batch handles reserved of the room
	// credits share (Layout.room), and leafRes the free blocks they
	// reserved for leaves (BeginRelink).
	reserved int
	leafRes  int64
	// stamps are the journal's stamps with the running transaction's
	// SetStamp calls applied.
	stamps [journal.Stamps]uint64
	// uwmMax is the highest watermark any inode has carried since Mount,
	// which seeds it with every record's and every stamp. A new inode
	// starts with it (allocInode), so whatever takes a freed number masks
	// the log entries of the number's previous lives.
	uwmMax uint64
	// txHold counts open batch handles (BeginRelink); while positive, the
	// running transaction must not commit — jbd2's "a transaction cannot
	// commit while handles are open". txIdle signals txHold reaching zero.
	txHold int
	txIdle *sync.Cond
	// pendingFrees are extents released by the running transaction. Like
	// jbd2, the blocks stay marked allocated — and therefore cannot be
	// handed out again — until the transaction commits: if a crash rolls
	// the transaction back, their old owner gets them back, so any reuse
	// before the commit would let new data alias rolled-back state (e.g.
	// a relink-punched staging range scribbled over before the relink
	// committed). The bitmap clears join the committing transaction.
	pendingFrees []pendingFree
	// graced lists data extents whose free has committed, that no page
	// table translates to any more, and that wait to be discarded — ext4's
	// -o discard, with RCU's grace period on top (DESIGN.md, "Shard
	// granularity"). A later commit that finds no lock-free Mapping access
	// in flight discards whatever of them the bitmap still shows free: an
	// access that translated to them before has ended by then, and every
	// later one translates elsewhere.
	graced []alloc.Extent
	// unmapped lists the data extents relinks took out of mapped files
	// that a page table may still translate to: each joins graced once its
	// free has committed and Remaps have covered the file range it was
	// moved out of (remapped).
	unmapped []unmappedFree
	// inflight counts Mapping accesses in progress: loads and stores, and
	// BeginAccess ... EndAccess windows.
	inflight atomic.Int64
	// dropped are the page tables Unmap handed back, which an access that
	// looked one up before may still translate through; tables those a
	// later commit found no access in flight for, for remapLocked to
	// reuse — together at most maxSpareTables (DESIGN.md, "Host
	// allocation and peak RSS").
	dropped, tables []*Mapping
	// freed are the file inodes the running transaction freed; spare
	// those whose free has committed, for allocInode to reuse with their
	// extent-list storage — together at most maxSpareInodes (DESIGN.md,
	// "Host allocation and peak RSS"). A record waits for the commit
	// because the transaction's batch handles may still write it back.
	freed, spare []*inode
	// wbOld is writeBack's view of what the buffer cache holds, wbNew
	// the encoding writeInode compares with it.
	wbOld, wbNew [sim.BlockSize]byte
	// Per-call scratch, so that relinks, commits, batches and directory
	// updates make no garbage (DESIGN.md, "Host allocation and peak
	// RSS"): the extents a relink or a truncate takes out of a file,
	// checkMoves' inode and range lists, the batch handles End handed back
	// for BeginRelink to reuse, and addDirent's record. Used under mu.
	moved   []alloc.Extent
	moveIns []*inode
	spans   []moveSpan
	batches []*Batch
	dirent  []byte

	stats fsStats
}

// maxSpareInodes bounds the inode records kept for reuse (FS.spare), and
// maxSpareTables the page tables (FS.tables), each of at most
// maxSpareTablePages entries: a 2 MB window of 4 KB pages.
const (
	maxSpareInodes     = 64
	maxSpareTables     = 64
	maxSpareTablePages = HugePageSize / sim.BlockSize
)

type pendingFree struct {
	bmp *alloc.Bitmap
	e   alloc.Extent
	// held: the extent is in unmapped too, and joins graced from there.
	held bool
}

// unmappedFree is an entry of FS.unmapped: extent e, which a relink took
// out of inode ino, and [lo, hi), the part of the file blocks it was
// moved out of that no Remap has covered yet.
type unmappedFree struct {
	ino       uint64
	lo, hi    int64
	e         alloc.Extent
	committed bool
}

var _ vfs.FileSystem = (*FS)(nil)

// Mkfs formats the device and returns a mounted file system.
func Mkfs(dev *pmem.Device, cfg Config) (*FS, error) {
	cfg.fill()
	lay, err := computeLayout(dev.Size(), cfg.JournalBlocks, cfg.MaxInodes)
	if err != nil {
		return nil, err
	}
	fs := fsOver(dev, lay)
	fs.jnl = journal.New(dev, lay.JournalOff, lay.JournalBlocks)
	fs.iBmp = alloc.New(dev, lay.InodeBmpOff, 0, lay.MaxInodes)
	fs.bBmp = alloc.New(dev, lay.BlockBmpOff, lay.DataOff, lay.DataBlocks)

	// Zero the bitmap regions and persist the superblock.
	zero := make([]byte, lay.InodeBmpLen)
	dev.PersistNT(lay.InodeBmpOff, zero, sim.CatPMMeta)
	zero = make([]byte, lay.BlockBmpLen)
	dev.PersistNT(lay.BlockBmpOff, zero, sim.CatPMMeta)
	dev.PersistNT(lay.SuperOff, encodeSuper(lay), sim.CatPMMeta)

	// Reserve ino 0 (invalid) and create the root directory as ino 1.
	fs.beginTx()
	for i := 0; i < 2; i++ {
		if _, _, err := fs.iBmp.AllocExtent(fs.src, 1); err != nil {
			return nil, err
		}
	}
	// Note the inode bitmap byte containing inos 0..7.
	fs.tx.Note(lay.InodeBmpOff, 1)
	root := &inode{ino: RootIno, isDir: true, nlink: 2, entries: make(map[string]dirEntry)}
	fs.icache[RootIno] = root
	fs.writeInode(root)
	fs.commitTx()
	return fs, nil
}

// fsOver is a file system over lay with nothing loaded yet.
func fsOver(dev *pmem.Device, lay Layout) *FS {
	fs := &FS{
		dev:    dev,
		clk:    dev.Clock(),
		lay:    lay,
		icache: make(map[uint64]*inode),
	}
	fs.txIdle = sync.NewCond(&fs.mu)
	return fs
}

// Mount attaches to a previously formatted device, replaying the journal
// and rebuilding the DRAM caches. Returns the file system and the number
// of journal transactions replayed. The format comes from the superblock:
// cfg is not read.
func Mount(dev *pmem.Device, cfg Config) (*FS, int, error) {
	super := make([]byte, 128)
	dev.ReadAt(super, 0, sim.CatPMMeta)
	jblocks, maxInodes, err := decodeSuper(super)
	if err != nil {
		return nil, 0, err
	}
	lay, err := computeLayout(dev.Size(), jblocks, maxInodes)
	if err != nil {
		return nil, 0, err
	}
	fs := fsOver(dev, lay)
	fs.jnl, _, err = journal.Load(dev, lay.JournalOff, lay.JournalBlocks)
	if err != nil {
		return nil, 0, err
	}
	replayed := int(fs.jnl.Stats().Replayed)
	fs.stamps = fs.jnl.Stamps()
	fs.uwmMax = slices.Max(fs.stamps[:])
	fs.iBmp = alloc.Load(dev, lay.InodeBmpOff, 0, lay.MaxInodes)
	fs.bBmp = alloc.Load(dev, lay.BlockBmpOff, lay.DataOff, lay.DataBlocks)
	// Load every allocated inode. A set bitmap bit with an unreadable
	// inode record is the remnant of an uncommitted create whose dirty
	// cache lines partially reached the media before the crash; like
	// e2fsck, treat the inode as free and move on — the create never
	// committed, so discarding it preserves metadata consistency.
	next := func(from int64) int64 { return fs.iBmp.First(from, lay.MaxInodes, true) }
	for ino := next(1); ino < lay.MaxInodes; ino = next(ino + 1) {
		in, err := fs.readInode(uint64(ino))
		if err != nil {
			fs.iBmp.Free(fs.src, alloc.Extent{Start: ino, Len: 1})
			continue
		}
		fs.icache[uint64(ino)] = in
		fs.uwmMax = max(fs.uwmMax, in.uwm)
	}
	if _, ok := fs.icache[RootIno]; !ok {
		return nil, 0, fmt.Errorf("ext4dax: no root inode")
	}
	return fs, replayed, nil
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "ext4-dax" }

// Device returns the underlying PM device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// Stats returns a snapshot of file-system counters.
func (fs *FS) Stats() Stats {
	return Stats{
		Traps:       fs.stats.traps.Load(),
		DataReads:   fs.stats.dataReads.Load(),
		DataWrites:  fs.stats.dataWrites.Load(),
		MetaOps:     fs.stats.metaOps.Load(),
		Commits:     fs.stats.commits.Load(),
		GCLeaders:   fs.stats.gcLeaders.Load(),
		GCFollowers: fs.stats.gcFollowers.Load(),
	}
}

// JournalStats returns the journal's own counters.
func (fs *FS) JournalStats() journal.Stats { return fs.jnl.Stats() }

// FreeBlocks reports remaining data capacity in blocks.
func (fs *FS) FreeBlocks() int64 { return fs.bBmp.FreeCount() }

// trap charges one user/kernel crossing. Lock-free, so the no-fs.mu read
// path can use it.
func (fs *FS) trap() {
	fs.clk.Charge(sim.KernelTrap)
	fs.stats.traps.Add(1)
}

// beginTx ensures a running transaction exists. Caller holds fs.mu.
func (fs *FS) beginTx() {
	if fs.tx == nil {
		fs.tx = fs.jnl.Begin()
		fs.nextTxID++
		fs.txID = fs.nextTxID
	}
}

// note adds a modified range to the running transaction. Caller holds
// fs.mu.
func (fs *FS) note(off int64, n int) {
	fs.beginTx()
	fs.tx.Note(off, n)
}

// Batch is an open batch handle: until End, the running journal
// transaction will not commit — not for a handle whose credit would not
// fit, not by a concurrent CommitMeta or fsync. This is how the relink
// ioctl keeps a multi-step fsync batch atomic against other journal users
// (jbd2: a transaction with open handles cannot commit). The handle also
// collects the inodes its Relink and SetUserWatermark calls change, and
// End writes each of them back once, however many steps touched it. Calls
// given the handle (MkdirIno, File.WriteAtIn, ...) draw on what it
// reserved: its credit, its leaves, and each inode's growth (res). Their
// writes, and End's, carry the event source the batch began with.
type Batch struct {
	fs     *FS
	src    pmem.EventSource
	dirty  []*inode
	credit int
	leaves int64
	res    []inodeGrow
}

// As is a handle that names only a source: a call given it is a handle of
// its own, as with nil, whose writes carry src.
func As(src pmem.EventSource) *Batch { return &Batch{src: src} }

// own reports whether a call under b is a handle of its own (nil, or As).
func (b *Batch) own() bool { return b == nil || b.fs == nil }

// lock takes mu for a call under b, whose writes carry b's source (nil:
// the foreground's) until unlock.
func (fs *FS) lock(b *Batch) {
	fs.mu.Lock()
	if b != nil {
		fs.src = b.src
	}
}

// unlock puts the foreground's source back and releases mu.
func (fs *FS) unlock() {
	fs.src = pmem.SrcForeground
	fs.mu.Unlock()
}

// waitIdle is txIdle.Wait, the foreground's source in place while mu is free.
func (fs *FS) waitIdle() {
	src := fs.src
	fs.src = pmem.SrcForeground
	fs.txIdle.Wait()
	fs.src = src
}

// BeginBatch opens a metadata batch handle, for one operation and the
// stamp it sets, or recovery's redo of one: it claims metaClaim.
func (fs *FS) BeginBatch() *Batch {
	b, _ := fs.BeginRelink(pmem.SrcForeground, nil, nil) // never refused: Mkfs keeps metaCredit within the journal
	return b
}

// BeginRelink opens a batch handle for a relink into dst, where moves name
// its steps — the relinks it makes, and with Src nil the ranges of dst its
// kernel writes cover — reserving its credit (relinkCredit) and free
// blocks for its leaves; with no dst, a metadata batch (BeginBatch). Like
// every handle it starts by committing the running transaction when its
// claim needs that (start). One that no transaction could hold, or whose
// leaves do not fit the device even once the running transaction's frees
// have committed, is refused with vfs.ErrNoSpace before anything changes.
// The batch's writes carry src, and so does that commit.
func (fs *FS) BeginRelink(src pmem.EventSource, dst *File, moves []Move) (*Batch, error) {
	fs.lock(As(src))
	defer fs.unlock()
	var b *Batch
	if n := len(fs.batches); n > 0 {
		b = fs.batches[n-1]
		fs.batches = fs.batches[:n-1]
	} else {
		b = &Batch{fs: fs}
	}
	var leaves int64
	c, err := fs.start(nil, func() claim {
		if dst == nil {
			return metaClaim
		}
		c, l := fs.relinkCredit(b, dst.in, moves)
		leaves = l
		return claim{credit: c, blocks: l}
	})
	if err == nil && fs.bBmp.FreeCount()-fs.leafRes < leaves {
		err = vfs.ErrNoSpace
	}
	if err != nil {
		clear(b.res)
		b.res = b.res[:0]
		fs.batches = append(fs.batches, b)
		return nil, err
	}
	for _, r := range b.res {
		r.in.resGrow += r.grow
	}
	b.src, b.credit, b.leaves = src, c, leaves
	fs.reserved += c
	fs.leafRes += leaves
	fs.txHold++
	return b, nil
}

// touch schedules inodes for the batch's single write-back. Caller holds
// fs.mu.
func (b *Batch) touch(ins ...*inode) {
	for _, in := range ins {
		if !slices.Contains(b.dirty, in) {
			b.dirty = append(b.dirty, in)
		}
	}
}

// End writes back the inodes the batch changed, closes the handle and
// wakes committers that were waiting for the transaction to become
// committable; the handle must not be used after it. It returns the id
// of the transaction the batch joined:
// that transaction could not commit while the handle was open, so the id
// covers every note the batch made, and CommitUpTo(id) — by the caller or
// any concurrent group-commit leader — makes the whole batch durable at
// once.
func (b *Batch) End() uint64 {
	fs := b.fs
	fs.lock(b)
	defer fs.unlock()
	for _, in := range b.dirty {
		fs.writeInode(in)
	}
	clear(b.dirty)
	b.dirty = b.dirty[:0]
	for _, r := range b.res {
		r.in.resGrow -= r.grow
	}
	clear(b.res)
	b.res = b.res[:0]
	fs.reserved -= b.credit
	fs.leafRes -= b.leaves
	fs.batches = append(fs.batches, b)
	fs.beginTx()
	fs.txHold--
	if fs.txHold == 0 {
		fs.txIdle.Broadcast()
	}
	return fs.txID
}

// awaitCommittable blocks until no batch handles are open. Caller holds
// fs.mu (released while waiting).
func (fs *FS) awaitCommittable() {
	for fs.txHold > 0 {
		fs.waitIdle()
	}
}

// deferFree schedules an extent's release for the next commit. Caller
// holds fs.mu.
func (fs *FS) deferFree(bmp *alloc.Bitmap, e alloc.Extent) {
	fs.beginTx()
	fs.pendingFrees = append(fs.pendingFrees, pendingFree{bmp: bmp, e: e})
}

// deferUnmap is deferFree for a data extent a relink takes out of file
// blocks [lo, hi) of in. While a Mapping of in may still translate to it,
// it is held in unmapped as well, until Remaps have covered [lo, hi).
// Caller holds fs.mu.
func (fs *FS) deferUnmap(in *inode, lo, hi int64, e alloc.Extent) {
	if !in.mapped {
		fs.deferFree(fs.bBmp, e)
		return
	}
	fs.beginTx()
	fs.pendingFrees = append(fs.pendingFrees, pendingFree{bmp: fs.bBmp, e: e, held: true})
	fs.unmapped = append(fs.unmapped, unmappedFree{ino: in.ino, lo: lo, hi: hi, e: e})
}

// remapped records that no page table of in translates file blocks [lo,
// hi) to where they were before the relinks so far, and moves to graced
// each held extent whose range that leaves wholly covered and whose free
// has committed. A covered prefix or suffix of a range is trimmed off; a
// covered middle leaves it waiting. Caller holds fs.mu.
func (fs *FS) remapped(in *inode, lo, hi int64) {
	if lo >= hi {
		return
	}
	for i := range fs.unmapped {
		u := &fs.unmapped[i]
		if u.ino != in.ino {
			continue
		}
		if lo <= u.lo {
			u.lo = max(u.lo, min(hi, u.hi))
		}
		if hi >= u.hi {
			u.hi = min(u.hi, max(lo, u.lo))
		}
	}
	fs.settleUnmapped()
}

// settleUnmapped moves to graced the held extents whose free has committed
// and whose file range Remaps have covered whole. Caller holds fs.mu.
func (fs *FS) settleUnmapped() {
	kept := fs.unmapped[:0]
	for _, u := range fs.unmapped {
		if u.committed && u.lo >= u.hi {
			fs.graced = append(fs.graced, u.e)
		} else {
			kept = append(kept, u)
		}
	}
	fs.unmapped = kept
}

// commitTx commits the running transaction, if any, applying the
// transaction's deferred block frees first so the bitmap clears commit
// atomically with the rest of it. Whether or not anything runs, it is a
// later commit for the extents graced holds; the data extents this one
// frees join graced once it has committed, those held in unmapped once
// Remaps have covered them too. Credits keep every transaction within the
// journal: a commit cannot fail. Caller holds fs.mu.
func (fs *FS) commitTx() {
	if fs.tx == nil {
		fs.discardGraced()
		fs.settleTables()
		return
	}
	frees := fs.pendingFrees
	for _, pf := range frees {
		dirty := pf.bmp.Free(fs.src, pf.e)
		fs.tx.Note(dirty.Off, dirty.Len)
	}
	fs.pendingFrees = nil
	tx := fs.tx
	id := fs.txID
	fs.tx = nil
	if err := tx.CommitAs(fs.src); err != nil {
		panic(fmt.Sprintf("ext4dax: a transaction of %d blocks outgrew the credits that admitted it: %v", tx.Blocks(), err))
	}
	fs.doneTxID = id
	if tx.Logged() > 0 { // an empty transaction commits without reaching the journal
		fs.stats.commits.Add(1)
	}
	fs.jnl.Recycle(tx)
	fs.discardGraced()
	fs.settleTables()
	fs.spare = append(fs.spare, fs.freed...)
	clear(fs.freed)
	fs.freed = fs.freed[:0]
	for _, pf := range frees {
		if pf.bmp == fs.bBmp && !pf.held {
			fs.graced = append(fs.graced, pf.e)
		}
	}
	if fs.pendingFrees == nil {
		fs.pendingFrees = frees[:0] // the next transaction's, in the same array
	}
	// Every relink so far ran in this transaction or an earlier one.
	for i := range fs.unmapped {
		fs.unmapped[i].committed = true
	}
	fs.settleUnmapped()
}

// discardGraced discards the blocks of graced that are still free, unless
// a Mapping access is in flight: then they wait for the next commit. A
// block allocated again since its free keeps what its new owner stored.
// Caller holds fs.mu.
func (fs *FS) discardGraced() {
	if len(fs.graced) == 0 || fs.inflight.Load() != 0 {
		return
	}
	for _, e := range fs.graced {
		for b := fs.bBmp.First(e.Start, e.End(), false); b < e.End(); {
			end := fs.bBmp.First(b, e.End(), true)
			fs.dev.Discard(fs.bBmp.BlockOffset(b), (end-b)*sim.BlockSize)
			b = fs.bBmp.First(end, e.End(), false)
		}
	}
	fs.graced = fs.graced[:0]
}

// settleTables makes the page tables Unmap handed back reusable, unless a
// Mapping access is in flight: one that looked a table up before its
// Unmap may still translate through it, and every later lookup misses it.
// Caller holds fs.mu.
func (fs *FS) settleTables() {
	if len(fs.dropped) == 0 || fs.inflight.Load() != 0 {
		return
	}
	fs.tables = append(fs.tables, fs.dropped...)
	clear(fs.dropped)
	fs.dropped = fs.dropped[:0]
}

// inodeOff returns the device offset of an inode record.
func (fs *FS) inodeOff(ino uint64) int64 {
	return fs.lay.InodeTblOff + int64(ino)*inodeSize
}

// writeInode serializes an inode (and its leaves) and writes back what
// changed: see writeBack. Caller holds fs.mu.
func (fs *FS) writeInode(in *inode) {
	fs.clk.Charge(sim.Ext4ExtentUpdate)
	// Leaves: everything past the inline extents, LeafExtents a leaf.
	leaves := int(leavesFor(int64(len(in.extents))))
	// Allocate or free leaves to match. Blocks from held on are fresh from
	// the allocator.
	held := len(in.overflow)
	for len(in.overflow) < leaves {
		e, dirty, err := fs.bBmp.AllocExtent(fs.src, 1)
		if err != nil {
			panic("ext4dax: no space for extent overflow block")
		}
		fs.note(dirty.Off, dirty.Len)
		in.overflow = append(in.overflow, e.Start)
	}
	for len(in.overflow) > leaves {
		last := in.overflow[len(in.overflow)-1]
		in.overflow = in.overflow[:len(in.overflow)-1]
		fs.deferFree(fs.bBmp, alloc.Extent{Start: last, Len: 1})
	}
	in.encode(fs.wbNew[:inodeSize])
	fs.writeBack(fs.inodeOff(in.ino), fs.wbNew[:inodeSize], false)
	for i, blk := range in.overflow {
		fs.writeBack(fs.bBmp.BlockOffset(blk), in.encodeLeaf(fs.wbNew[:], i), i >= held)
	}
}

// writeBack stores the cache-line runs of p that differ from what the
// buffer cache holds at off (cache-line aligned) and notes them in the
// running transaction, so an inode write-back costs what the change
// touched, not what the inode owns: an unchanged overflow block is
// neither stored, journaled nor flushed. Skipping a line whose volatile
// bytes already match is crash-safe because metadata lines are only ever
// written by noted buffered stores (DESIGN.md, "Inode write-back") —
// except in a block fresh from the allocator, whose volatile bytes may be
// a previous owner's unfenced data: that one is stored whole. Caller
// holds fs.mu, which also guards the scratch block.
func (fs *FS) writeBack(off int64, p []byte, fresh bool) {
	if fresh {
		fs.dev.As(fs.src).StoreBuffered(off, p, sim.CatPMMeta)
		fs.note(off, len(p))
		return
	}
	old := fs.wbOld[:len(p)]
	fs.dev.Peek(old, off)
	line := func(b []byte, at int) []byte { return b[at:min(at+sim.CacheLine, len(b))] }
	for lo := 0; lo < len(p); lo += sim.CacheLine {
		hi := lo
		for hi < len(p) && !bytes.Equal(line(p, hi), line(old, hi)) {
			hi += sim.CacheLine
		}
		if hi > lo {
			hi = min(hi, len(p))
			fs.dev.As(fs.src).StoreBuffered(off+int64(lo), p[lo:hi], sim.CatPMMeta)
			fs.note(off+int64(lo), hi-lo)
			lo = hi // the line at hi, if any, matched
		}
	}
}

// readInode loads an inode record and its leaves from the device.
func (fs *FS) readInode(ino uint64) (*inode, error) {
	return fs.loadInode(ino, func(p []byte, off int64) { fs.dev.ReadAt(p, off, sim.CatPMMeta) })
}

// loadInode decodes inode ino — its record, then its leaf chain — from
// what read returns at device offsets. It accepts exactly what writeInode
// leaves, so a torn or hostile record is an error and never a hang or a
// panic, and an inode it returns re-encodes to the bytes it was read from
// (FuzzInodeRecord): a leaf only behind a full record or a full leaf, no
// empty or overfull leaf, every leaf inside the data region and none
// twice, pad bytes zero; and extents non-empty, in logical order, inside
// MaxFileBlocks and the data region, so what later walks them stays on
// the device.
func (fs *FS) loadInode(ino uint64, read func(p []byte, off int64)) (*inode, error) {
	rec := make([]byte, inodeSize)
	read(rec, fs.inodeOff(ino))
	in, next, err := decodeInode(ino, rec)
	if err != nil {
		return nil, err
	}
	bad := func(format string, a ...any) (*inode, error) {
		return nil, fmt.Errorf("ext4dax: inode %d: "+format, append([]any{ino}, a...)...)
	}
	for full := len(in.extents) == InlineExtents; next != 0; {
		switch {
		case !full:
			return bad("the chain goes on to block %d behind a node that is not full: longer than its extents need", next)
		case next < 0 || next >= fs.lay.DataBlocks:
			return bad("leaf %d at block %d is outside the data region", len(in.overflow), next)
		case slices.Contains(in.overflow, next):
			return bad("the leaf chain cycles back to block %d", next)
		}
		in.overflow = append(in.overflow, next)
		hdr := make([]byte, overflowHeader)
		devOff := fs.bBmp.BlockOffset(next)
		read(hdr, devOff)
		cnt := int(getU32(hdr[8:12]))
		if cnt == 0 || cnt > LeafExtents || !zero(hdr[12:16]) {
			return bad("leaf %d at block %d holds %d records (pad %x)", len(in.overflow)-1, next, cnt, hdr[12:16])
		}
		buf := make([]byte, cnt*extentRecSize)
		read(buf, devOff+overflowHeader)
		for k := 0; k < cnt; k++ {
			in.extents = append(in.extents, getExtent(buf[k*extentRecSize:]))
		}
		full = cnt == LeafExtents
		next = int64(getU64(hdr[0:8]))
	}
	end := int64(0)
	for i, e := range in.extents {
		if e.Phys.Len == 0 || e.Logical < end || e.LogicalEnd() > MaxFileBlocks || e.Phys.End() > fs.lay.DataBlocks {
			return bad("extent %d (logical %d, phys %v) is empty, out of order or out of bounds", i, e.Logical, e.Phys)
		}
		end = e.LogicalEnd()
	}
	return in, nil
}
