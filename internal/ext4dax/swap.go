package ext4dax

import (
	"fmt"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// This file is the reproduction of the paper's 500-line ext4 patch: the
// EXT4_IOC_MOVE_EXT ioctl, modified to touch only metadata and to move
// extents rather than exchange them. It implements
// relink(file1, offset1, file2, offset2, size) — §3.3.

// lockPair write-locks two distinct inodes in ino order, so concurrent
// relinks over overlapping file pairs cannot deadlock. Returns the unlock
// function.
func lockPair(a, b *inode) func() {
	if a.ino > b.ino {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
	return func() { b.mu.Unlock(); a.mu.Unlock() }
}

// rangeMapped reports whether [blk, blk+cnt) is fully allocated.
func rangeMapped(fs *FS, in *inode, blk, cnt int64) bool {
	for cur := blk; cur < blk+cnt; {
		_, contig, ok := translate(fs, in, cur)
		if !ok {
			return false
		}
		cur += contig
	}
	return true
}

// Relink is the kernel half of the paper's relink primitive as one call:
// it logically and atomically moves [srcOff, srcOff+n) of src to
// [dstOff, dstOff+n) of dst without copying data, extends dst to
// newDstSize if that is larger, and commits. The commit makes the move
// atomic; a crash before it leaves both files untouched.
func (fs *FS) Relink(src, dst *File, srcOff, dstOff, n int64, newDstSize int64) error {
	b := fs.BeginBatch()
	err := b.Relink(src, dst, srcOff, dstOff, n, newDstSize)
	txid := b.End()
	if err != nil {
		return err
	}
	return fs.CommitUpTo(txid)
}

// Relink moves the blocks backing [srcOff, srcOff+n) of src to
// [dstOff, dstOff+n) of dst, leaving a hole in src, and extends dst to
// newDstSize if that is larger. Metadata only: no data is copied or
// flushed, no block is allocated, and existing memory mappings remain
// valid (they keep addressing the same physical blocks). Where dst has a
// hole the blocks fill it; blocks dst already holds there (a strict-mode
// overwrite) are released when the transaction commits, per the
// deferred-free rule, which is the only case that touches the block
// bitmap. Offsets and length must be block-aligned, the source range
// fully allocated and the files distinct. Both inodes are written back
// by End, and the move becomes durable, atomically with the rest of the
// batch, when the transaction End returns commits.
//
// Growing dst to newDstSize exposes no stale bytes as long as the caller
// keeps the rule every other path into a file keeps: bytes past
// newDstSize in the last block moved in are zero (truncateLocked).
func (b *Batch) Relink(src, dst *File, srcOff, dstOff, n int64, newDstSize int64) error {
	fs := b.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.clk.Charge(sim.CatJournal, sim.Ext4JournalHandleNs)
	if srcOff%sim.BlockSize != 0 || dstOff%sim.BlockSize != 0 ||
		n <= 0 || n%sim.BlockSize != 0 || src.in == dst.in {
		return vfs.ErrInval
	}
	defer lockPair(src.in, dst.in)()
	srcBlk, dstBlk, cnt := srcOff/sim.BlockSize, dstOff/sim.BlockSize, n/sim.BlockSize
	if !rangeMapped(fs, src.in, srcBlk, cnt) {
		return fmt.Errorf("src unmapped at blk %d cnt %d: %w", srcBlk, cnt, vfs.ErrInval)
	}
	// Remap event for both inodes: each now addresses different physical
	// blocks in the moved range. (The data itself does not move — an
	// ext4dax.Mapping stays valid — but a lease's Extent.DevOff table is
	// stale the moment ownership changes, because the old owner's file may
	// free or overwrite the blocks.)
	src.in.mapEpoch.Add(1)
	dst.in.mapEpoch.Add(1)
	for _, e := range dst.in.extents.Extract(dstBlk, cnt) {
		fs.deferFree(fs.bBmp, e)
		dst.in.blocks -= e.Len
	}
	for _, e := range src.in.extents.Extract(srcBlk, cnt) {
		dst.in.extents.Insert(dstBlk, e)
		dstBlk += e.Len
	}
	src.in.blocks -= cnt
	dst.in.blocks += cnt
	if newDstSize > dst.in.size {
		dst.in.size = newDstSize
	}
	b.touch(src.in, dst.in)
	return nil
}

// SetUserWatermark is File.SetUserWatermark inside a batch: the inode
// record carrying the new watermark is the one End writes back, so a
// relink and its watermark share a write-back as well as a commit.
func (b *Batch) SetUserWatermark(f *File, v uint64) {
	b.fs.mu.Lock()
	defer b.fs.mu.Unlock()
	f.in.mu.Lock()
	f.in.uwm = v
	f.in.mu.Unlock()
	b.touch(f.in)
}

// CommitMeta commits the running journal transaction. It is the tail of
// the relink ioctl: this is what makes SplitFS's fsync (6.85 µs, Table 6)
// far cheaper than ext4's full fsync path (28.98 µs). If another thread
// holds an open batch handle, the commit waits until the batch closes so
// it can never persist a half-applied relink.
func (fs *FS) CommitMeta() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.awaitCommittable()
	return fs.commitTx()
}

// TxID returns the id of the running journal transaction, starting one if
// none is. Every mutation noted while this id stays current commits with
// it; CommitUpTo(id) then makes them durable. A batch gets its id from
// Batch.End instead, which reads it before the handle closes.
func (fs *FS) TxID() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.beginTx()
	return fs.txID
}

// CommitUpTo is the group-commit form of CommitMeta: it returns once
// transaction txid has committed. If a concurrent committer — the
// group-commit leader, in jbd2 terms — already committed it, the call
// returns immediately with no journal IO and no fences of its own; this
// is how concurrent fsyncs of distinct files coalesce into one journal
// transaction and one fence pair. Otherwise the caller becomes the
// leader, waits for open batch handles to close, and commits.
func (fs *FS) CommitUpTo(txid uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.doneTxID >= txid {
		fs.stats.gcFollowers.Add(1)
		return nil
	}
	// awaitCommittable releases fs.mu while batch handles are open; a
	// concurrent leader may commit our transaction in that window, so
	// re-check afterwards rather than double-commit.
	fs.awaitCommittable()
	if fs.doneTxID >= txid {
		fs.stats.gcFollowers.Add(1)
		return nil
	}
	if err := fs.commitTx(); err != nil {
		return err
	}
	fs.stats.gcLeaders.Add(1)
	if fs.doneTxID < txid {
		// Ids are monotone, so one successful commit of the running
		// transaction covers txid — unless that transaction was consumed
		// by an earlier failed commit. Surface that instead of spinning.
		return fmt.Errorf("ext4dax: transaction %d cannot commit (committed through %d; lost to an earlier failed commit)", txid, fs.doneTxID)
	}
	return nil
}

// DoneTxID reports the highest committed transaction id (tests and
// harness instrumentation).
func (fs *FS) DoneTxID() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.doneTxID
}

// SetUserWatermark stores U-Split's log-sequence watermark in the inode:
// the eight bytes of that field, not the whole record, noted into the
// running journal transaction — nothing else about the inode changed, and
// U-Split stamps one with every synchronous metadata operation. Called
// under an open batch handle it commits together with whatever else the
// handle covers; otherwise the caller commits.
func (f *File) SetUserWatermark(v uint64) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	f.in.uwm = v
	var b [8]byte
	putU64(b[:], v)
	off := fs.inodeOff(f.in.ino) + uwmOff
	fs.dev.StoreBuffered(off, b[:], sim.CatPMMeta)
	fs.note(off, len(b))
}

// UserWatermark reads the inode's U-Split watermark.
func (f *File) UserWatermark() uint64 {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return f.in.uwm
}

// MaxUserWatermark scans all inodes for the highest watermark, so a
// recovered U-Split instance can continue its sequence monotonically.
func (fs *FS) MaxUserWatermark() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var m uint64
	for _, in := range fs.icache {
		if in.uwm > m {
			m = in.uwm
		}
	}
	return m
}

// RangeAllocated reports whether every block of [off, off+n) is backed by
// physical blocks. U-Split's recovery uses it to probe whether a relink
// already punched a staging range (§5.3).
func (f *File) RangeAllocated(off, n int64) bool {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	first := off / sim.BlockSize
	cnt := (off+n+sim.BlockSize-1)/sim.BlockSize - first
	return rangeMapped(fs, f.in, first, cnt)
}

// PathByIno finds the path of a live inode by walking the directory tree;
// used by U-Split recovery to reopen files named in operation-log entries.
func (fs *FS) PathByIno(ino uint64) (string, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var found string
	var walk func(prefix string, dir *inode) bool
	walk = func(prefix string, dir *inode) bool {
		if fs.ensureDir(dir) != nil {
			return false
		}
		for name, de := range dir.entries {
			p := prefix + "/" + name
			if de.ino == ino {
				found = p
				return true
			}
			if de.isDir {
				if child := fs.icache[de.ino]; child != nil && walk(p, child) {
					return true
				}
			}
		}
		return false
	}
	if walk("", fs.icache[RootIno]) {
		return found, true
	}
	return "", false
}
