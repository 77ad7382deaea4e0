package ext4dax

import (
	"cmp"
	"fmt"
	"slices"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// This file is the reproduction of the paper's 500-line ext4 patch: the
// EXT4_IOC_MOVE_EXT ioctl, modified to touch only metadata and to move
// extents rather than exchange them. It implements
// relink(file1, offset1, file2, offset2, size) — §3.3.

// Move is one element of a relink vector: the blocks backing
// [SrcOff, SrcOff+Len) of Src become [DstOff, DstOff+Len) of the vector's
// destination.
type Move struct {
	Src                 *File
	SrcOff, DstOff, Len int64
}

// lockInodes write-locks distinct inodes in ino order, so concurrent
// relinks over overlapping sets of files cannot deadlock.
func lockInodes(ins []*inode) {
	slices.SortFunc(ins, func(a, b *inode) int { return cmp.Compare(a.ino, b.ino) })
	for _, in := range ins {
		in.mu.Lock()
	}
}

// unlockInodes releases what lockInodes took.
func unlockInodes(ins []*inode) {
	for _, in := range ins {
		in.mu.Unlock()
	}
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

// Relink is the relink ioctl: one crossing and one journal handle, however
// many moves the vector holds. Each move takes the blocks backing its
// source range into dst at DstOff, leaving a hole in the source, and dst
// grows to newDstSize if that is larger. Metadata only: no data is copied
// or flushed, no block is allocated, and existing memory mappings remain
// valid (they keep addressing the same physical blocks). Where dst has a
// hole the blocks fill it; blocks dst already holds there (a strict-mode
// overwrite) are released when the transaction commits, per the
// deferred-free rule, which is the only case that touches the block
// bitmap; they are not discarded while a Mapping of dst may still
// translate to them, that is before a Remap has covered the move
// (FS.Remap). The whole vector is validated before anything moves
// (checkMoves), so a rejected call changes nothing. Every inode named is
// written back by End, and the moves become durable, atomically with the
// rest of the batch, when the transaction End returns commits.
//
// Growing dst to newDstSize exposes no stale bytes as long as the caller
// keeps the rule every other path into a file keeps: bytes past
// newDstSize in the last block moved in are zero (truncateLocked).
func (b *Batch) Relink(dst *File, newDstSize int64, moves []Move) error {
	fs := b.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.clk.Charge(sim.Ext4JournalHandle)
	ins, err := fs.checkMoves(dst.in, newDstSize, moves)
	if err != nil {
		return err
	}
	b.touch(ins...)
	lockInodes(ins)
	defer unlockInodes(ins)
	// Remap event for every inode named: each now addresses different
	// physical blocks in a moved range. (The data itself does not move — an
	// ext4dax.Mapping stays valid — but a lease's Extent.DevOff table is
	// stale the moment ownership changes, because the old owner's file may
	// free or overwrite the blocks.)
	for _, in := range ins {
		in.mapEpoch.Add(1)
	}
	for _, m := range moves {
		src := m.Src.in
		srcBlk, dstBlk, cnt := m.SrcOff/sim.BlockSize, m.DstOff/sim.BlockSize, m.Len/sim.BlockSize
		fs.moved = dst.in.extents.Extract(fs.moved[:0], dstBlk, cnt)
		for _, e := range fs.moved {
			fs.deferUnmap(dst.in, dstBlk, dstBlk+cnt, e)
			dst.in.blocks -= e.Len
		}
		fs.moved = src.extents.Extract(fs.moved[:0], srcBlk, cnt)
		for _, e := range fs.moved {
			dst.in.extents.Insert(dstBlk, e)
			dstBlk += e.Len
		}
		src.blocks -= cnt
		dst.in.blocks += cnt
	}
	if newDstSize > dst.in.size {
		dst.in.size = newDstSize
	}
	return nil
}

// checkMoves is the ioctl's argument check, over the whole vector: every
// move block-aligned, non-empty, out of a fully allocated range of a file
// other than dst into one inside MaxFileSize, dst grown no further than
// that, and no two ranges of one inode — dst's, or a source's —
// overlapping. (So checking up front equals checking move by move: no
// move maps or unmaps what another reads.) It returns the distinct inodes
// named, sources in order of first appearance, then dst, in fs's scratch.
// Caller holds fs.mu, under which no extent map changes.
func (fs *FS) checkMoves(dst *inode, newDstSize int64, moves []Move) ([]*inode, error) {
	if len(moves) == 0 || newDstSize > MaxFileSize {
		return nil, vfs.ErrInval
	}
	ins, spans := fs.moveIns[:0], fs.spans[:0]
	defer func() {
		clear(spans)
		fs.moveIns, fs.spans = ins[:0], spans[:0]
	}()
	for _, m := range moves {
		if m.SrcOff%sim.BlockSize != 0 || m.DstOff%sim.BlockSize != 0 ||
			m.Len <= 0 || m.Len%sim.BlockSize != 0 || m.Src.in == dst ||
			m.DstOff < 0 || m.DstOff > MaxFileSize-m.Len {
			return nil, vfs.ErrInval
		}
		if blk, cnt := m.SrcOff/sim.BlockSize, m.Len/sim.BlockSize; !rangeMapped(fs, m.Src.in, blk, cnt) {
			return nil, fmt.Errorf("src unmapped at blk %d cnt %d: %w", blk, cnt, vfs.ErrInval)
		}
		if !slices.Contains(ins, m.Src.in) {
			ins = append(ins, m.Src.in)
		}
		spans = append(spans, moveSpan{dst, m.DstOff, m.Len}, moveSpan{m.Src.in, m.SrcOff, m.Len})
	}
	slices.SortFunc(spans, func(a, b moveSpan) int { return cmp.Or(cmp.Compare(a.in.ino, b.in.ino), cmp.Compare(a.off, b.off)) })
	for i := 1; i < len(spans); i++ {
		if p, s := spans[i-1], spans[i]; p.in == s.in && p.off+p.n > s.off {
			return nil, fmt.Errorf("moves overlap in inode %d at %d: %w", s.in.ino, s.off, vfs.ErrInval)
		}
	}
	ins = append(ins, dst)
	return ins, nil
}

// moveSpan is a range of one inode that a relink vector moves out of or
// into.
type moveSpan struct {
	in     *inode
	off, n int64
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
	b.fs.uwmMax = max(b.fs.uwmMax, v)
	b.touch(f.in)
}

// CommitMeta commits the running journal transaction. It is the tail of
// the relink ioctl: this is what makes SplitFS's fsync (6.85 µs, Table 6)
// far cheaper than ext4's full fsync path (28.98 µs). If another thread
// holds an open batch handle, the commit waits until the batch closes so
// it can never persist a half-applied relink.
func (fs *FS) CommitMeta() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.awaitCommittable()
	fs.commitTx()
}

// TxID returns the id of the running journal transaction. Every mutation
// noted while this id stays current commits with it; CommitUpTo(id) then
// makes them durable. When nothing runs — no transaction, and no batch
// handle open that could start one — it is the id the next transaction
// will take: everything noted so far has committed, and CommitUpTo of an
// id no transaction has taken is free. A batch gets its id from Batch.End
// instead, which reads it before the handle closes.
func (fs *FS) TxID() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.tx == nil && fs.txHold == 0 {
		return fs.nextTxID + 1
	}
	fs.beginTx()
	return fs.txID
}

// CommitUpTo is the group-commit form of CommitMeta: it returns once
// transaction txid has committed. If a concurrent committer — the
// group-commit leader, in jbd2 terms — already committed it, the call
// returns immediately with no journal IO and no fences of its own; this
// is how concurrent fsyncs of distinct files coalesce into one journal
// transaction and one fence pair. Otherwise the caller becomes the
// leader, waits for open batch handles to close, and commits under its
// own source src: ids are monotone, so that commit covers txid.
func (fs *FS) CommitUpTo(src pmem.EventSource, txid uint64) {
	fs.lock(As(src))
	defer fs.unlock()
	if txid > fs.nextTxID {
		return // TxID found nothing running, and nothing has started since
	}
	// awaitCommittable releases fs.mu while batch handles are open; a
	// concurrent leader may commit our transaction in that window, so
	// check afterwards rather than double-commit.
	if fs.doneTxID < txid {
		fs.awaitCommittable()
	}
	if fs.doneTxID >= txid {
		fs.stats.gcFollowers.Add(1)
		return
	}
	fs.commitTx()
	fs.stats.gcLeaders.Add(1)
}

// Idle reports whether nothing noted waits for a commit: no transaction
// runs and no batch handle is open that could start one.
func (fs *FS) Idle() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.tx == nil && fs.txHold == 0
}

// SetUserWatermark stores U-Split's log-sequence watermark in the inode:
// the eight bytes of that field, not the whole record, noted into the
// running journal transaction — nothing else about the inode changed.
// Under batch b it commits together with whatever else the batch covers;
// with b nil or As it is a handle of its own, and the caller commits.
func (f *File) SetUserWatermark(b *Batch, v uint64) {
	fs := f.fs
	fs.lock(b)
	defer fs.unlock()
	fs.admit(b, claim{credit: watermarkCredit})
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	f.in.uwm = v
	fs.uwmMax = max(fs.uwmMax, v)
	var buf [8]byte
	putU64(buf[:], v)
	off := fs.inodeOff(f.in.ino) + uwmOff
	fs.dev.As(fs.src).StoreBuffered(off, buf[:], sim.CatPMMeta)
	fs.note(off, len(buf))
}

// UserWatermark reads the inode's U-Split watermark.
func (f *File) UserWatermark() uint64 {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return f.in.uwm
}

// SetStamp sets a journal stamp (journal.Tx.SetStamp) in the running
// transaction. The batch's handle is what ties it to the effects it
// stands for: no commit can fall between them and the stamp.
func (b *Batch) SetStamp(slot int, v uint64) {
	fs := b.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.beginTx()
	fs.tx.SetStamp(slot, v)
	fs.stamps[slot] = max(fs.stamps[slot], v)
}

// Stamp reads a journal stamp as the running transaction leaves it; after
// Mount, as the recovered journal holds it.
func (fs *FS) Stamp(slot int) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stamps[slot]
}

// MaxUserWatermark is the highest sequence number U-Split ever put on
// this file system — every inode's watermark and every journal stamp — so
// a recovered U-Split instance can continue its sequence monotonically.
func (fs *FS) MaxUserWatermark() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return max(slices.Max(fs.stamps[:]), fs.uwmMax)
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
