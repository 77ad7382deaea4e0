package ext4dax

import (
	"slices"
	"sort"

	"splitfs/internal/journal"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Journal credits, jbd2's rule (DESIGN.md, "Journal credits"): a handle —
// a batch or a mutating call — names, when it starts, an upper bound on
// the distinct journal blocks it dirties, and the running transaction
// commits first when that would not fit beside it. No credit counts a
// bitmap block: the room credits share leaves every bitmap block out
// (Layout.room), so whatever a transaction allocates, and the frees its
// commit applies, always fit beside them — on a device whose bitmaps
// take at most half the journal's capacity, 16 GB with the default one.
//
// The metadata credits, a block each of: a create's new record, the
// directory block its entry lands in, and the parent's record, last leaf
// and a new leaf; an unlink's or rmdir's directory block and the record
// whose link count changes; a rename's two entry blocks, the replaced
// inode's record, the block the new entry lands in, both parents' records,
// and the new parent's last leaf and a new leaf; a truncate's record, the
// leaf of its new last extent and the block whose tail a cut zeroes; a
// watermark's record.
const (
	createCredit    = 5
	unlinkCredit    = 2
	renameCredit    = 8
	truncateCredit  = 3
	watermarkCredit = 1
	// metaCredit is what a metadata batch reserves: the most one
	// operation's calls dirty, a rename's, more than a create's with its
	// watermark. Mkfs refuses a journal that cannot hold it.
	metaCredit = renameCredit
)

// A claim is what a handle names when it starts: its credit, and how many
// inode numbers and blocks it may allocate.
type claim struct {
	credit         int
	inodes, blocks int64
}

// The metadata claims that allocate: a create may take an inode number
// and grow its directory by a block and the leaf that block's extent may
// need (extendDir), a rename grow the new parent, and a metadata batch
// hold either.
var (
	createClaim = claim{createCredit, 1, 2}
	renameClaim = claim{renameCredit, 0, 2}
	metaClaim   = claim{metaCredit, 1, 2}
)

// room is how many blocks of one transaction handles' credits share: the
// journal's capacity less every bitmap block, or less half of it on a
// device with more (DESIGN.md, "Journal credits").
func (l Layout) room() int {
	c := journal.Capacity(l.JournalBlocks)
	return c - int(min((l.InodeBmpLen+l.BlockBmpLen)/sim.BlockSize, int64(c/2)))
}

// start begins a handle that claims want(). Under open batch b it draws
// on what the batch reserved. Any other commits the running transaction
// first — waiting for open batches to close if it must, fs.mu released
// meanwhile and want asked again — when its credit would not fit beside
// the transaction and the open batches' reservations, or when it may
// allocate more inode numbers or blocks than are free while the
// transaction holds frees: jbd2 commits when an allocation has to wait
// for frees (ext4_should_retry_alloc). These commits, CommitMeta's and
// CommitUpTo's are the only ones. A handle no transaction could hold is
// refused with vfs.ErrNoSpace before it changes anything. start returns
// the credit it admitted. Caller holds fs.mu.
func (fs *FS) start(b *Batch, want func() claim) (int, error) {
	for b.own() {
		c := want()
		switch {
		case c.credit > fs.lay.room():
			return 0, vfs.ErrNoSpace
		case (c.credit == 0 || fs.fits(c.credit)) && !fs.short(c):
			return c.credit, nil
		case fs.txHold == 0:
			fs.commitTx()
		default:
			fs.waitIdle()
		}
	}
	return 0, nil
}

// short reports whether claim c may allocate more inode numbers, or more
// blocks beside the leaves open batches reserved, than are free while the
// running transaction holds frees. Caller holds fs.mu.
func (fs *FS) short(c claim) bool {
	return len(fs.pendingFrees) > 0 && (c.inodes > 0 && fs.iBmp.FreeCount() < c.inodes ||
		c.blocks > 0 && fs.bBmp.FreeCount()-fs.leafRes < c.blocks)
}

// admit is start for a metadata claim c, which is never refused. Caller
// holds fs.mu.
func (fs *FS) admit(b *Batch, c claim) { _, _ = fs.start(b, func() claim { return c }) }

// fits reports whether c more blocks fit the running transaction beside
// what open batches reserved. Caller holds fs.mu.
func (fs *FS) fits(c int) bool {
	if fs.tx != nil {
		c += fs.tx.Blocks()
	}
	return c+fs.reserved <= fs.lay.room()
}

// leavesFor is how many leaves an extent list of n records takes.
func leavesFor(n int64) int64 { return max(0, n-InlineExtents+LeafExtents-1) / LeafExtents }

// newLeaves is how many leaves in may need once its extent list has grown
// by grow records, beyond those it has and those open batches reserved for
// their own growth of it (resGrow). Caller holds fs.mu.
func newLeaves(in *inode, grow int64) int64 {
	n := int64(len(in.extents)) + in.resGrow
	return max(0, leavesFor(n+grow)-max(int64(len(in.overflow)), leavesFor(n)))
}

// inodeCredit bounds what writing in back dirties once its extent records
// from the one covering file block from on have changed and grown by at
// most grow: its record, and every leaf from the one before that
// record's (whose next pointer a new leaf sets) — those it has, those its
// records already need (a write-back pending), and the new leaves, which
// it also returns. Caller holds fs.mu.
func inodeCredit(in *inode, from, grow int64) (credit int, leaves int64) {
	at := int64(sort.Search(len(in.extents), func(k int) bool { return in.extents[k].LogicalEnd() > from }))
	leaves = newLeaves(in, grow)
	all := max(int64(len(in.overflow)), leavesFor(int64(len(in.extents))+in.resGrow)) + leaves
	return int(1 + max(0, all-max(0, at-1-InlineExtents)/LeafExtents)), leaves
}

// holes is how many of file blocks [lo, hi) of in no extent maps, and
// extents how many extents map the others. Caller holds fs.mu.
func holes(in *inode, lo, hi int64) (h, extents int64) {
	for blk := lo; blk < hi; {
		_, contig, ok := in.extents.Lookup(blk)
		if !ok {
			contig = in.extents.NextMapped(blk) - blk
			h += min(contig, hi-blk)
		} else {
			extents++
		}
		blk += contig
	}
	return h, extents
}

// writeClaim is a write's claim. Its credit reaches to its first
// allocation — writeLocked stops before each later one that does not fit:
// none for an overwrite inside the file, the record for one that extends
// it, and for one that fills a hole what one more extent record costs. Its
// blocks are those the holes take and the leaves their records may need.
// Caller holds fs.mu.
func writeClaim(in *inode, off, end int64) claim {
	lo := off / sim.BlockSize
	if h, _ := holes(in, lo, (end+sim.BlockSize-1)/sim.BlockSize); h > 0 {
		c, _ := inodeCredit(in, lo, 1)
		return claim{credit: c, blocks: h + newLeaves(in, h)}
	}
	if end > in.size {
		return claim{credit: 1}
	}
	return claim{}
}

// inodeGrow is growth a batch reserved in an inode's extent list.
type inodeGrow struct {
	in   *inode
	grow int64
}

// relinkCredit is the credit of a relink batch into dst, and the leaves
// it may add, when moves name its steps: relinks of fully mapped source
// ranges (Src set) and kernel writes into dst (Src nil). dst's records
// from the first block a step lands on grow by the extents each relink
// takes and one more, as its range may split an extent, and by one for
// each block a write fills a hole with; each source's, from the first
// block moved out, by one a relink, whose hole may split an extent. It
// lists each inode's growth in b.res. Caller holds fs.mu.
func (fs *FS) relinkCredit(b *Batch, dst *inode, moves []Move) (credit int, leaves int64) {
	b.res = b.res[:0]
	tally := func(in *inode, from, grow int64) {
		c, l := inodeCredit(in, from, grow)
		credit, leaves = credit+c, leaves+l
		b.res = append(b.res, inodeGrow{in, grow})
	}
	from, grow, srcs := int64(MaxFileBlocks), int64(0), fs.moveIns[:0]
	for _, m := range moves {
		lo := m.DstOff / sim.BlockSize
		from = min(from, lo)
		if m.Src == nil {
			h, _ := holes(dst, lo, (m.DstOff+m.Len+sim.BlockSize-1)/sim.BlockSize)
			grow += h
			continue
		}
		_, n := holes(m.Src.in, m.SrcOff/sim.BlockSize, (m.SrcOff+m.Len)/sim.BlockSize)
		grow += n + 1
		if !slices.Contains(srcs, m.Src.in) {
			srcs = append(srcs, m.Src.in)
		}
	}
	tally(dst, from, grow)
	for _, src := range srcs {
		from, grow = MaxFileBlocks, 0
		for _, m := range moves {
			if m.Src != nil && m.Src.in == src {
				from, grow = min(from, m.SrcOff/sim.BlockSize), grow+1
			}
		}
		tally(src, from, grow)
	}
	clear(srcs)
	fs.moveIns = srcs[:0]
	return credit, leaves
}
