package splitfs

import (
	"fmt"
	"slices"
	"sync"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// relinkLocked applies a file's staged ranges to the target file and
// commits the batch: the inline form for operations that relink one file
// as a step of their own, under its lock — truncate, rename's flushes and
// the last close. Whatever makes staged data durable for its own sake
// (fsync, SyncAll, the checkpoint) goes through syncFiles (fsync.go),
// which runs the same steps for any number of files under one commit.
// Caller holds of.mu.
func (fs *FS) relinkLocked(of *ofile) error {
	var buf [8]stagedRange
	txid, released, err := fs.relinkStepsLocked(pmem.SrcForeground, of, buf[:0])
	if err != nil {
		return err
	}
	fs.kfs.CommitUpTo(pmem.SrcForeground, txid)
	fs.staging.release(released)
	return nil
}

// relinkStepsLocked performs a file's relink batch WITHOUT committing the
// journal transaction (§3.4): whole blocks move by relink (no data copy),
// and so does the partial last block of an append; other unaligned head
// and tail bytes are copied through the kernel, as the paper prescribes
// for partial blocks. Every step joins one K-Split journal transaction,
// pinned open by a batch handle so no concurrent journal user can commit
// it half applied; concurrent batches of distinct files share the
// transaction and group-commit together.
//
// It returns the id of the journal transaction the batch joined — the
// caller makes the batch durable with kfs.CommitUpTo(txid) — and
// released with the staged ranges consumed appended, whose staging-pool
// references the caller releases after that commit (recovery may need
// the staged bytes until the relink is durable). The overlay's array
// itself is kept for the ranges staged next. U-Split's volatile view
// (sizes, mappings, attributes) is updated here, under of.mu, so readers
// stay consistent even though durability arrives later. Caller holds
// of.mu.
//
// Recovery safety needs no markers: each strict-mode log entry names its
// staging range, and relink leaves a hole exactly where the blocks it
// moved were. Replay re-applies an entry only if its staging range is
// still allocated; a hole means the relink transaction committed.
// Copy-only (sub-block) entries are idempotent to re-apply.
//
// The batch handle reserves its journal credits and leaves before the
// overlay is popped, and a step that fails — a copy that finds no free
// block — fails before the relink call: either way nothing has moved, and
// the overlay is put back, the data staged for a later fsync to retry.
// Every write of the steps, here or in K-Split, carries src.
func (fs *FS) relinkStepsLocked(src pmem.EventSource, of *ofile, released []stagedRange) (txid uint64, _ []stagedRange, err error) {
	if len(of.staged) == 0 {
		// Nothing staged: fence outstanding stores (in-place overwrites in
		// POSIX mode) and have the caller commit the running journal
		// transaction — fsync promises durability of the file's metadata
		// too, so an earlier truncate or allocating write must not be
		// lost. An empty transaction commits for free. (Found by the
		// persistence-event crash sweep: truncate + fsync + crash lost
		// the truncate.)
		fs.dev.As(src).Fence()
		return fs.kfs.TxID(), released, nil
	}
	sc := getRelink()
	defer putRelink(sc)
	var batch *ext4dax.Batch
	if !fs.cfg.DisableRelink {
		planPieces(sc, of.staged, of.size)
		if batch, err = fs.kfs.BeginRelink(src, &of.kf, sc.moves); err != nil {
			return 0, released, err
		}
	}
	staged := of.staged
	of.staged = nil
	defer func() {
		if err != nil { // nothing moved: the data stays staged
			of.staged = staged
			return
		}
		clear(staged)
		of.staged = staged[:0]
	}()
	// Remap event: the popped ranges' staging blocks are moved into the
	// target (whole blocks) or copied and released (partial blocks);
	// either way their old device offsets go back to the staging pool
	// and may be recycled. Bump before that can happen, so lease holders
	// re-validating after their loads observe it (vfs.Mappable).
	of.mapEpoch.Add(1)
	// The active chunk survives the relink: only the blocks consumed so
	// far are moved, and the chunk tail stays congruent with the file, so
	// subsequent appends keep packing into it. Without this, WAL-style
	// workloads (small append + fsync per operation) would burn one chunk
	// per fsync.
	fs.stats.relinks.Add(1)

	if batch == nil {
		// Fig 3 ablation: staging without relink — copy everything
		// through the kernel on fsync (committing internally).
		if err := fs.copyStaged(ext4dax.As(src), of, sc, staged); err != nil {
			return 0, released, err
		}
		return fs.kfs.TxID(), append(released, staged...), nil
	}

	// The batch handle is held across the steps: while it is open, no
	// other journal user (another file's fsync, staging-file creation, or
	// a handle whose credit does not fit) can commit the shared running
	// transaction with this relink half applied.
	err = fs.relinkPieces(src, batch, sc, of)
	// In strict mode, advance the inode's relink watermark in the same
	// transaction (and the same inode write-back): every log entry for
	// this file with seq <= watermark is now covered by the relink, and
	// recovery must not replay it (an older copy-only entry replayed over
	// newer relinked data would corrupt the file). The watermark is the
	// file's own highest logged sequence — not the global op sequence — so
	// relinks never need the strict-mode writer lock.
	if err == nil && fs.mode == Strict {
		batch.SetUserWatermark(&of.kf, of.logSeq)
	}
	// Closing the handle writes each touched inode back once; a complete
	// batch is then safe for anyone to commit, and the caller's
	// CommitUpTo(txid) — or any concurrent group-commit leader — makes
	// the whole batch atomic at once.
	txid = batch.End()
	if err != nil {
		return 0, released, err
	}
	// The modified ioctl keeps existing memory mappings valid across the
	// move (§3.5); staged ranges were written through staging-file
	// mappings that remain valid too. Refresh both at no fault cost.
	for _, s := range staged {
		fs.mmaps.refresh(of, s.fileOff, s.length, s.dram == nil)
	}
	if of.size > of.ksize {
		of.ksize = of.size
	}
	fs.setAttrSize(of, of.size)
	return txid, append(released, staged...), nil
}

// planPieces lists in sc.moves the steps that bring staged ranges into a
// file of the given size, and in sc.from the piece each step serves, for
// the batch to reserve them (ext4dax.FS.BeginRelink) and relinkPieces to
// take them. Later staged ranges shadow earlier ones, so the staged list
// is first partitioned into latest-writer-wins pieces: every file byte
// is sourced from exactly one staged range. Beyond avoiding dead copies,
// the disjointness is a crash-safety requirement: a sub-block copy must
// never land inside a file range whose blocks this same (uncommitted)
// batch moves in from the staging file — if the crash rolls the batch
// back, those blocks return to the staging file with the copy scribbled
// over the staged data recovery replays. Disjoint pieces make such an
// overlap impossible, because a relinked run covers only whole blocks
// that belong entirely to its own piece. (Found by the persistence-event
// crash sweep; see DESIGN.md.)
//
// Whole blocks move by relink (Src set); a partial head is copied through
// the kernel (Src nil; §3.3: "SplitFS copies the partial data for that
// block"), and so is a partial tail that stops short of EOF, since the
// rest of that block holds other bytes of the file; an append's partial
// last block holds nothing but its piece, so it moves whole (DESIGN.md,
// "Relink is a move"). DRAM-staged data has no PM blocks to relink: it is
// copied whole (§4: this copy is why DRAM staging loses).
func planPieces(sc *relinkScratch, staged []stagedRange, size int64) {
	sc.pieces = partitionStaged(sc, staged)
	sc.moves, sc.from = sc.moves[:0], sc.from[:0]
	step := func(pc relinkPiece, m ext4dax.Move) {
		sc.moves, sc.from = append(sc.moves, m), append(sc.from, pc)
	}
	for _, pc := range sc.pieces {
		s, a, b := pc.src, pc.a, pc.b
		if s.dram != nil {
			step(pc, ext4dax.Move{DstOff: a, Len: b - a})
			continue
		}
		head := (a + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize
		tail := b / sim.BlockSize * sim.BlockSize
		if head > a {
			step(pc, ext4dax.Move{DstOff: a, Len: min(head, b) - a})
		}
		if b > tail && tail >= head && b == size {
			tail += sim.BlockSize
		}
		if tail > head {
			step(pc, ext4dax.Move{Src: s.sf.kf, SrcOff: s.sfOff + (head - s.fileOff), DstOff: head, Len: tail - head})
		}
		if b > tail && tail >= head {
			step(pc, ext4dax.Move{DstOff: tail, Len: b - tail})
		}
	}
}

// relinkPieces takes planPieces' steps inside an open batch: the copies
// as kernel writes under the handle, and the relinks by one relink call
// at the end — one crossing and one journal handle per file (DESIGN.md,
// "Relink is a move", part 4), its stores under src. Caller holds of.mu.
func (fs *FS) relinkPieces(src pmem.EventSource, batch *ext4dax.Batch, sc *relinkScratch, of *ofile) error {
	moves := sc.moves[:0]
	var blocks int64
	for i, m := range sc.moves {
		pc := sc.from[i]
		s := pc.src
		if m.Src == nil {
			if err := fs.copyRange(batch, of, sc, s, m.DstOff, m.DstOff+m.Len); err != nil {
				return err
			}
			continue
		}
		if end := m.DstOff + m.Len; end > pc.b {
			// An append's partial last block, moving whole: what follows
			// the piece in the staging block is private dead space — a
			// recycled block's old bytes — and becomes the target's slack
			// past EOF, which K-Split keeps zero on media: zero it here,
			// ahead of the commit whose first fence orders it before the
			// move.
			s.sf.m.StoreNT(src, zeroBlock[:end-pc.b], s.sfOff+(pc.b-s.fileOff))
			// If the active chunk's cursor stands right after the piece,
			// it steps to the end of that block: the staging file is
			// about to lose the block, so the next append must start in
			// the one after, and give-back must not return it.
			if c := of.active; c != nil && c.sf == s.sf && c.base+c.used == s.sfOff+(pc.b-s.fileOff) {
				c.used += end - pc.b
			}
		}
		moves = append(moves, m)
		blocks += m.Len / sim.BlockSize
	}
	sc.moves = moves
	if len(moves) == 0 {
		return nil
	}
	if err := batch.Relink(&of.kf, of.size, moves); err != nil {
		return fmt.Errorf("relink of %d moves into %s: %w", len(moves), of.path, err)
	}
	fs.stats.relinkBlocks.Add(blocks)
	return nil
}

// zeroBlock is the source of the zeros stored over a moved block's slack.
var zeroBlock [sim.BlockSize]byte

// relinkPiece is a maximal sub-range [a, b) of one staged range that no
// later staged range shadows.
type relinkPiece struct {
	src stagedRange
	a   int64
	b   int64
}

// relinkScratch is a relink's working storage: partitionStaged's three
// lists, planPieces' steps and their pieces and the bytes of a partial block copied
// through the kernel (copyRange). Relinks of different files run at once,
// so they come from a pool rather than from an owner, and an fsync makes
// no garbage (DESIGN.md, "Host allocation and peak RSS"). The pool is the
// package's: one inside FS would keep a closed instance, device and all,
// reachable from the runtime's pool list for two more collections.
type relinkScratch struct {
	pieces, segs, next, from []relinkPiece
	moves                    []ext4dax.Move
	buf                      []byte
}

var relinkScratches = sync.Pool{New: func() any { return new(relinkScratch) }}

func getRelink() *relinkScratch { return relinkScratches.Get().(*relinkScratch) }

// putRelink returns sc to the pool, dropping what its lists point at —
// staging files, K-Split handles — and a copy buffer larger than a block
// (the DRAM-staging ablation copies whole ranges).
func putRelink(sc *relinkScratch) {
	clear(sc.pieces[:cap(sc.pieces)])
	clear(sc.segs[:cap(sc.segs)])
	clear(sc.next[:cap(sc.next)])
	clear(sc.from[:cap(sc.from)])
	clear(sc.moves[:cap(sc.moves)])
	if cap(sc.buf) > sim.BlockSize {
		sc.buf = nil
	}
	relinkScratches.Put(sc)
}

// partitionStaged splits staged ranges into disjoint latest-writer-wins
// pieces: each piece's bytes come from the last range that wrote them.
// The lists are sc's; the pieces returned share sc.pieces' array.
func partitionStaged(sc *relinkScratch, staged []stagedRange) []relinkPiece {
	pieces, segs, next := sc.pieces[:0], sc.segs[:0], sc.next[:0]
	defer func() { sc.segs, sc.next = segs, next }()
	for i, s := range staged {
		segs = append(segs[:0], relinkPiece{src: s, a: s.fileOff, b: s.fileOff + s.length})
		for _, later := range staged[i+1:] {
			lo, hi := later.fileOff, later.fileOff+later.length
			next = next[:0]
			for _, g := range segs {
				if g.b <= lo || hi <= g.a {
					next = append(next, g)
					continue
				}
				if g.a < lo {
					next = append(next, relinkPiece{src: s, a: g.a, b: lo})
				}
				if hi < g.b {
					next = append(next, relinkPiece{src: s, a: hi, b: g.b})
				}
			}
			segs, next = next, segs
		}
		pieces = append(pieces, segs...)
	}
	return pieces
}

// setAttrSize updates the attribute cache's size for a file's path —
// unless the file was unlinked (its path no longer names it; re-caching
// would resurrect attributes for a dead or reused name). The liveness
// check happens inside amu: Unlink deletes the attribute after the
// kernel unlink, also under amu, so this insert either precedes that
// delete (and is swept by it) or observes the dead inode and bails.
func (fs *FS) setAttrSize(of *ofile, size int64) {
	fs.amu.Lock()
	defer fs.amu.Unlock()
	if !of.kf.Linked() {
		return
	}
	info := fs.attrs[of.path]
	info.Size = size
	fs.attrs[of.path] = info
}

// copyRange copies staged bytes [a, b) through the kernel write path (the
// partial-block copy of §3.3), under batch (or a handle of its own that
// names only a source), through sc's buffer. Caller holds of.mu.
func (fs *FS) copyRange(batch *ext4dax.Batch, of *ofile, sc *relinkScratch, s stagedRange, a, b int64) error {
	sc.buf = slices.Grow(sc.buf[:0], int(b-a))
	buf := sc.buf[:b-a]
	if s.dram != nil {
		fs.clk.ChargeN(sim.DRAMCopy, int64(len(buf)))
		copy(buf, s.dram[a-s.fileOff:])
	} else {
		s.sf.m.Load(buf, s.sfOff+(a-s.fileOff))
	}
	if _, err := of.kf.WriteAtIn(batch, buf, a); err != nil {
		return err
	}
	fs.stats.copiedBytes.Add(b - a)
	return nil
}

// copyStaged is the no-relink fallback (Fig 3 ablation): every staged
// byte goes through the kernel under h, through sc's buffer, and is fsynced.
func (fs *FS) copyStaged(h *ext4dax.Batch, of *ofile, sc *relinkScratch, staged []stagedRange) error {
	for _, s := range staged {
		if err := fs.copyRange(h, of, sc, s, s.fileOff, s.fileOff+s.length); err != nil {
			return err
		}
	}
	if fs.mode == Strict {
		of.kf.SetUserWatermark(h, of.logSeq)
	}
	if err := of.kf.SyncIn(h); err != nil {
		return err
	}
	if of.size > of.ksize {
		of.ksize = of.size
	}
	fs.setAttrSize(of, of.size)
	return nil
}
