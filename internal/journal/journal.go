// Package journal implements a JBD2-style physical redo journal, the
// mechanism ext4 DAX (K-Split in the paper) uses for metadata atomicity —
// and the mechanism SplitFS's relink primitive piggybacks on (§3.3:
// "Atomicity is ensured by wrapping the changes in a ext4 journal
// transaction").
//
// Operation: callers stage metadata mutations with ordinary cached stores
// to their home locations and Note() the ranges in a transaction. Commit
// then
//
//  1. writes a descriptor block listing the touched home blocks,
//  2. writes a full 4 KB journal copy of every touched block (this
//     full-block logging is what makes ext4 metadata-heavy, a cost the
//     paper measures in Table 1),
//  3. fences, writes a commit block carrying the stamps the transaction
//     set (SetStamp) and a CRC-32C of the descriptor, the images and the
//     stamps, fences,
//  4. flushes the home locations and fences (checkpoint),
//  5. advances the journal tail: one superblock record — generation, tail,
//     tail sequence and the stamps under one CRC-32C — written to the
//     record slot the previous write did not use.
//
// A crash between (3) and (4) is repaired on Load by replaying committed
// transactions; anything not yet committed is discarded by the pmem
// crash model, leaving the previous consistent state. A superblock write
// the crash tore fails its sum and Load starts from the other slot — the
// state before that write, never a mix of the two.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

const (
	descMagic   = 0x4a424432 // "JBD2"
	commitMagic = 0x434f4d54 // "COMT"

	// maxBlocksPerTx bounds a transaction to what one descriptor block can
	// describe.
	maxBlocksPerTx = 255

	superSize = 64 // one superblock record: magic and sum, then super's fields

	descHomes    = 32 // descriptor: magic, seq and count, then the home list from here
	commitStamps = 24 // commit record: magic, seq and sum, then the stamps from here

	// Stamps is how many stamps a journal carries: 64-bit values that a
	// transaction sets (Tx.SetStamp), that commit with it, atomically with
	// its blocks, and that never go down. U-Split keeps one per op log —
	// the sequence number of the last logged operation whose effects the
	// committed journal holds — at no home block's, and so no image's, cost.
	Stamps = 4
)

// ErrTooLarge is returned when a transaction touches more distinct blocks
// than one descriptor can hold.
var ErrTooLarge = errors.New("journal: transaction exceeds descriptor capacity")

// ErrFull is returned when the journal region cannot hold a transaction
// even when empty.
var ErrFull = errors.New("journal: region too small for transaction")

// Stats count journal activity.
type Stats struct {
	Commits      int64
	BlocksLogged int64 // full 4 KB block images written to the journal
	Replayed     int64 // transactions replayed at Load time
}

// Journal is a circular physical redo log on a PM device region.
type Journal struct {
	dev   *pmem.Device
	start int64 // device byte offset of the journal region
	nblk  int64 // capacity in 4 KB blocks (including the superblock)

	mu   sync.Mutex
	seq  uint64
	head int64 // next journal block index to write (1-based; 0 is the superblock)
	super
	replayedSeq uint64 // the last transaction Load replayed
	stats       Stats

	// Commit's scratch, used under mu (New and Load run before the journal
	// is shared): the descriptor and then the commit record, one block
	// image, a superblock record. The journal owns them because sim.CRC32C
	// makes what it is handed escape — as Commit's locals the summed ones
	// are 8 KB of garbage per commit (DESIGN.md, "Checksums").
	hdr, img [sim.BlockSize]byte
	sb       [superSize]byte
	// Commit's home-block list and the set that dedups it, and the
	// committed transaction Recycle handed back for Begin to reuse: a
	// running file system commits all the time, so none of them is
	// garbage per commit. Used under mu.
	blocks []int64
	seen   map[int64]struct{}
	spare  *Tx
}

// super is what a superblock record holds, under one sum: a crash leaves
// all of a state or none of it. Journal block 0 opens with two record
// slots; write gen goes to slot gen&1, so the one before it stays intact.
type super struct {
	gen     uint64 // superblock writes so far
	tailSeq uint64
	tail    int64          // oldest live journal block index
	stamps  [Stamps]uint64 // as of the last commit
}

// New formats a journal in [start, start+nblk*4K) and persists the empty
// superblock. nblk must be at least 8.
func New(dev *pmem.Device, start, nblk int64) *Journal {
	if nblk < 8 {
		panic("journal: region too small")
	}
	j := &Journal{dev: dev, start: start, nblk: nblk, seq: 1, head: 1}
	// Generations count on from any record an earlier journal left here,
	// so that in Load it loses to this one's.
	slots := make([]byte, 2*superSize)
	dev.Peek(slots, start)
	old, _ := readSuper(slots)
	j.super = super{gen: old.gen, tailSeq: 1, tail: 1}
	j.writeSuper()
	return j
}

// Load mounts an existing journal, replaying any committed-but-not-
// checkpointed transactions. It returns the journal and the number of
// transactions replayed.
func Load(dev *pmem.Device, start, nblk int64) (*Journal, int, error) {
	j := &Journal{dev: dev, start: start, nblk: nblk}
	slots := make([]byte, 2*superSize)
	dev.ReadAt(slots, start, sim.CatJournal)
	var ok bool
	if j.super, ok = readSuper(slots); !ok {
		return nil, 0, errors.New("journal: no superblock record verifies")
	}
	j.seq = j.tailSeq
	j.head = j.tail
	replayed := 0
	for {
		n, err := j.replayOne()
		if err != nil || n == 0 {
			break
		}
		replayed++
	}
	j.stats.Replayed = int64(replayed)
	// Everything replayed is durable; reset to empty.
	j.tail = j.head
	j.tailSeq = j.seq
	j.writeSuper()
	return j, replayed, nil
}

func (j *Journal) blockOff(idx int64) int64 { return j.start + idx*sim.BlockSize }

// wrap advances a journal block index, skipping the superblock at 0.
func (j *Journal) wrap(idx int64) int64 {
	if idx >= j.nblk {
		return 1
	}
	return idx
}

// writeSuper persists the journal's state as the next superblock record.
func (j *Journal) writeSuper() {
	j.gen++
	rec := j.sb[:]
	binary.LittleEndian.PutUint32(rec[0:4], descMagic)
	binary.LittleEndian.PutUint64(rec[8:16], j.gen)
	binary.LittleEndian.PutUint64(rec[16:24], j.tailSeq)
	binary.LittleEndian.PutUint64(rec[24:32], uint64(j.tail))
	for i, v := range j.stamps {
		binary.LittleEndian.PutUint64(rec[32+8*i:], v)
	}
	binary.LittleEndian.PutUint32(rec[4:8], sim.CRC32C(0, rec[8:]))
	j.dev.PersistNT(j.start+int64(j.gen&1)*superSize, rec, sim.CatJournal)
}

// readSuper decodes the newer of the record slots that verify, if one does.
func readSuper(slots []byte) (s super, ok bool) {
	for ; len(slots) >= superSize; slots = slots[superSize:] {
		rec, gen := slots[:superSize], binary.LittleEndian.Uint64(slots[8:16])
		if binary.LittleEndian.Uint32(rec[0:4]) != descMagic || ok && gen < s.gen ||
			binary.LittleEndian.Uint32(rec[4:8]) != sim.CRC32C(0, rec[8:]) {
			continue
		}
		s, ok = super{gen: gen, tailSeq: binary.LittleEndian.Uint64(rec[16:24]), tail: int64(binary.LittleEndian.Uint64(rec[24:32]))}, true
		for i := range s.stamps {
			s.stamps[i] = binary.LittleEndian.Uint64(rec[32+8*i:])
		}
	}
	return s, ok
}

// Tx is a running transaction. Not safe for concurrent use; the journal
// serializes commits internally.
type Tx struct {
	j      *Journal
	ranges []blockRange
	stamps [Stamps]uint64 // zero: not set by this transaction
	closed bool
	logged int
}

type blockRange struct {
	off int64
	n   int
}

// Begin opens a transaction, reusing the one Recycle last handed back.
// Per-operation handle costs (jbd2 journal_start/stop) are charged by the
// file system, not here, since a running transaction batches many
// operations.
func (j *Journal) Begin() *Tx {
	j.mu.Lock()
	tx := j.spare
	j.spare = nil
	j.mu.Unlock()
	if tx == nil {
		tx = &Tx{j: j}
	}
	return tx
}

// Recycle hands a committed transaction back, with its range list's
// storage, for the next Begin to reuse. The caller must not use tx
// afterwards.
func (j *Journal) Recycle(tx *Tx) {
	if !tx.closed {
		panic("journal: Recycle of a running transaction")
	}
	*tx = Tx{j: j, ranges: tx.ranges[:0]}
	j.mu.Lock()
	j.spare = tx
	j.mu.Unlock()
}

// Note records that the caller has modified [off, off+n) of the device
// with cached stores; the covering 4 KB blocks join the transaction.
func (tx *Tx) Note(off int64, n int) {
	if tx.closed {
		panic("journal: Note on committed transaction")
	}
	if n <= 0 {
		return
	}
	tx.ranges = append(tx.ranges, blockRange{off: off, n: n})
}

// SetStamp makes stamp slot read v once the transaction has committed, if
// that raises it — in the same instant as the transaction's blocks,
// wherever a crash falls.
func (tx *Tx) SetStamp(slot int, v uint64) { tx.stamps[slot] = v }

// Stamps returns the stamps as of the last commit (or Load).
func (j *Journal) Stamps() [Stamps]uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stamps
}

// homeBlocks returns the device block offsets touched by the
// transaction, each once, in the order they were first noted, in j's
// scratch. Caller holds j.mu.
func (tx *Tx) homeBlocks(j *Journal) []int64 {
	blocks := j.blocks[:0]
	if j.seen == nil {
		j.seen = make(map[int64]struct{})
	}
	clear(j.seen)
	for _, r := range tx.ranges {
		first := r.off / sim.BlockSize
		last := (r.off + int64(r.n) - 1) / sim.BlockSize
		// A transaction past the descriptor's capacity fails whatever
		// else it holds, which also bounds the scan.
		for b := first; b <= last && len(blocks) <= maxBlocksPerTx; b++ {
			off := b * sim.BlockSize
			if _, dup := j.seen[off]; !dup {
				j.seen[off] = struct{}{}
				blocks = append(blocks, off)
			}
		}
	}
	j.blocks = blocks
	return blocks
}

// txSum starts a transaction's checksum: CRC-32C, seeded with the folded
// sequence number, over the descriptor's header and its n home offsets.
// The block images continue it and the commit record stores the result,
// so a tear anywhere in the entry fails replay's comparison.
func txSum(seq uint64, desc []byte, n int) uint32 {
	return sim.CRC32C(uint32(seq^seq>>32), desc[:descHomes+8*n])
}

// Commit durably applies the transaction. On return, every noted range is
// persistent, the stamps it set read their new values and the journal
// entry is already checkpointed. An empty transaction is free of journal
// IO; one that set stamps and noted nothing is a superblock write.
func (tx *Tx) Commit() error {
	if tx.closed {
		panic("journal: double commit")
	}
	tx.closed = true
	if len(tx.ranges) == 0 && tx.stamps == [Stamps]uint64{} {
		return nil // Note keeps no empty range: nothing to log
	}
	j := tx.j
	j.mu.Lock()
	defer j.mu.Unlock()
	blocks := tx.homeBlocks(j)
	if len(blocks) > maxBlocksPerTx {
		return ErrTooLarge
	}
	if len(blocks) == 0 {
		j.raiseStamps(tx.stamps)
		j.writeSuper()
		return nil
	}

	need := int64(len(blocks)) + 2 // descriptor + images + commit
	if need > j.nblk-1 {
		return ErrFull
	}
	// Per-commit checkpointing (home flushed at the end of every commit)
	// means all earlier entries are reclaimable: reset to an empty journal
	// if this transaction would wrap.
	if j.head+need > j.nblk {
		j.tail = 1
		j.head = 1
		j.tailSeq = j.seq
		j.writeSuper()
	}

	// 1. Descriptor block.
	desc := j.hdr[:]
	clear(desc)
	binary.LittleEndian.PutUint32(desc[0:4], descMagic)
	binary.LittleEndian.PutUint64(desc[8:16], j.seq)
	binary.LittleEndian.PutUint32(desc[16:20], uint32(len(blocks)))
	for i, b := range blocks {
		binary.LittleEndian.PutUint64(desc[descHomes+i*8:], uint64(b))
	}
	sum := txSum(j.seq, desc, len(blocks))
	idx := j.head
	j.dev.StoreNT(j.blockOff(idx), desc, sim.CatJournal)
	idx = j.wrap(idx + 1)

	// 2. Full block images, read back at cache speed from the volatile
	// view (the caller already stored its mutations there).
	img := j.img[:]
	for _, b := range blocks {
		j.dev.Peek(img, b)
		sum = sim.CRC32C(sum, img)
		j.dev.StoreNT(j.blockOff(idx), img, sim.CatJournal)
		idx = j.wrap(idx + 1)
		j.stats.BlocksLogged++
	}
	// 3. Order images before the commit record, which carries every stamp
	// as this transaction leaves it.
	j.dev.Fence()
	j.raiseStamps(tx.stamps)
	commit := j.hdr[:]
	clear(commit)
	binary.LittleEndian.PutUint32(commit[0:4], commitMagic)
	binary.LittleEndian.PutUint64(commit[8:16], j.seq)
	for i, v := range j.stamps {
		binary.LittleEndian.PutUint64(commit[commitStamps+8*i:], v)
	}
	sum = sim.CRC32C(sum, commit[commitStamps:commitStamps+8*Stamps])
	binary.LittleEndian.PutUint32(commit[16:20], sum)
	j.dev.StoreNT(j.blockOff(idx), commit, sim.CatJournal)
	j.dev.Fence()
	idx = j.wrap(idx + 1)

	// 4. Checkpoint: flush home locations so the entry can be reclaimed.
	// Each touched block is flushed once, however many times it was
	// noted (jbd2 checkpoints each buffer once).
	for _, b := range blocks {
		j.dev.Flush(b, sim.BlockSize, sim.CatPMMeta)
	}
	j.dev.Fence()

	// 5. Advance the tail past this entry.
	j.seq++
	j.head = idx
	j.tail = idx
	j.tailSeq = j.seq
	j.writeSuper()
	j.stats.Commits++
	tx.logged = len(blocks)
	return nil
}

// raiseStamps moves the journal's stamps up to the ones a committing
// transaction set. Caller holds j.mu.
func (j *Journal) raiseStamps(set [Stamps]uint64) {
	for i, v := range set {
		j.stamps[i] = max(j.stamps[i], v)
	}
}

// Logged reports how many block images Commit wrote to the journal: zero
// for a transaction that noted nothing, whose commit did no IO (and for
// one that has not committed).
func (tx *Tx) Logged() int { return tx.logged }

// replayOne replays the transaction at the tail, if valid and committed.
// Returns the number of blocks restored (0 when the scan hits the end of
// the log).
func (j *Journal) replayOne() (int, error) {
	desc := make([]byte, sim.BlockSize)
	idx := j.head
	j.dev.ReadAt(desc, j.blockOff(idx), sim.CatJournal)
	if binary.LittleEndian.Uint32(desc[0:4]) != descMagic {
		return 0, nil
	}
	seq := binary.LittleEndian.Uint64(desc[8:16])
	if seq != j.seq {
		return 0, nil
	}
	count := int(binary.LittleEndian.Uint32(desc[16:20]))
	if count == 0 || count > maxBlocksPerTx {
		return 0, nil
	}
	if int64(count)+2 > j.nblk-1 {
		return 0, nil
	}
	homes := make([]int64, count)
	for i := range homes {
		homes[i] = int64(binary.LittleEndian.Uint64(desc[descHomes+i*8:]))
	}
	// Read images and verify against the commit record before applying.
	images := make([][]byte, count)
	sum := txSum(seq, desc, count)
	idx = j.wrap(idx + 1)
	for i := 0; i < count; i++ {
		img := make([]byte, sim.BlockSize)
		j.dev.ReadAt(img, j.blockOff(idx), sim.CatJournal)
		sum = sim.CRC32C(sum, img)
		images[i] = img
		idx = j.wrap(idx + 1)
	}
	commit := make([]byte, sim.BlockSize)
	j.dev.ReadAt(commit, j.blockOff(idx), sim.CatJournal)
	stamps := commit[commitStamps : commitStamps+8*Stamps]
	if binary.LittleEndian.Uint32(commit[0:4]) != commitMagic ||
		binary.LittleEndian.Uint64(commit[8:16]) != seq ||
		binary.LittleEndian.Uint32(commit[16:20]) != sim.CRC32C(sum, stamps) {
		return 0, nil
	}
	idx = j.wrap(idx + 1)
	// Valid: restore the block images to their home locations, and the
	// stamps to what the transaction left.
	for i, home := range homes {
		j.dev.StoreNT(home, images[i], sim.CatPMMeta)
	}
	j.dev.Fence()
	for i := range j.stamps {
		j.stamps[i] = binary.LittleEndian.Uint64(stamps[8*i:])
	}
	j.seq, j.replayedSeq = seq+1, seq
	j.head = idx
	return count, nil
}

// Check verifies a journal at rest, as Load and every Commit leave it: the
// newer superblock record on media verifies and is the journal's state, no
// entry is live, and the sequence is past every transaction Load replayed.
func (j *Journal) Check() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	slots := make([]byte, 2*superSize)
	j.dev.Peek(slots, j.start)
	switch m, ok := readSuper(slots); {
	case !ok || m != j.super:
		return fmt.Errorf("journal: superblock record %+v (verifies: %v) is not the journal's %+v", m, ok, j.super)
	case j.tail != j.head || j.tailSeq != j.seq || j.seq <= j.replayedSeq:
		return fmt.Errorf("journal: not at rest: tail %d (seq %d), head %d (seq %d), replayed through %d",
			j.tail, j.tailSeq, j.head, j.seq, j.replayedSeq)
	}
	return nil
}

// Stats returns journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}
