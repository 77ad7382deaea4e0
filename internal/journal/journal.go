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
//  1. writes a descriptor block listing the touched home blocks to
//     journal block 1 (block 0 holds the superblock),
//  2. writes a full 4 KB journal copy of every touched block after it
//     (this full-block logging is what makes ext4 metadata-heavy, a cost
//     the paper measures in Table 1),
//  3. fences, writes a commit block carrying the stamps the transaction
//     set (SetStamp) and a CRC-32C of the descriptor, the images and the
//     stamps, fences,
//  4. flushes the home locations and fences (checkpoint),
//  5. retires the entry: one superblock record — generation, the next
//     transaction's sequence number and the stamps under one CRC-32C —
//     written to the record slot the previous write did not use.
//
// Every commit checkpoints before it returns, so at most one entry is
// ever live, and every transaction is written from block 1, over its
// predecessor's: the device backs one transaction's journal blocks, not
// the region. A crash between (3) and (5) is repaired on Load by
// replaying that entry. A crash before (3) completes leaves an entry that
// does not verify — torn over its predecessor's blocks, it may carry
// pieces of both — and the homes as the predecessor's checkpoint left
// them, since uncommitted stores are discarded by the pmem crash model. A
// superblock write the crash tore fails its sum and Load starts from the
// other slot — the state before that write, never a mix of the two.
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

	// txStart is the journal block every transaction's descriptor goes
	// to, and what a superblock record stores as the tail.
	txStart = 1

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
	Replayed     int64 // transactions replayed at Load time: 0 or 1
}

// Journal is a physical redo log on a PM device region that holds at most
// one live transaction.
type Journal struct {
	dev   *pmem.Device
	start int64 // device byte offset of the journal region
	nblk  int64 // capacity in 4 KB blocks (including the superblock)

	mu sync.Mutex
	super
	stats Stats

	// Commit's scratch, used under mu (New and Load run before the journal
	// is shared): the descriptor and then the commit record, one block
	// image, a superblock record. The journal owns them because sim.CRC32C
	// makes what it is handed escape — as Commit's locals the summed ones
	// are 8 KB of garbage per commit (DESIGN.md, "Checksums").
	hdr, img [sim.BlockSize]byte
	sb       [superSize]byte
	// The committed transaction Recycle handed back for Begin to reuse,
	// with its block list and the set that dedups it: a running file
	// system commits all the time, so none of them is garbage per commit.
	// Used under mu.
	spare *Tx
}

// super is what a superblock record holds, under one sum: a crash leaves
// all of a state or none of it. Journal block 0 opens with two record
// slots; write gen goes to slot gen&1, so the one before it stays intact.
// The record's tail word, where a live entry would start, always reads
// txStart.
type super struct {
	gen    uint64         // superblock writes so far
	seq    uint64         // the next transaction's; every earlier one is checkpointed
	stamps [Stamps]uint64 // as of the last commit
}

// New formats a journal in [start, start+nblk*4K) and persists the empty
// superblock. nblk must be at least 8.
func New(dev *pmem.Device, start, nblk int64) *Journal {
	if nblk < 8 {
		panic("journal: region too small")
	}
	j := &Journal{dev: dev, start: start, nblk: nblk}
	// Generations count on from any record an earlier journal left here,
	// so that in Load it loses to this one's; and so does the sequence,
	// past the earlier journal's live or retired entry at block 1 (at most
	// old.seq), which Load would otherwise replay over newer homes.
	slots := make([]byte, 2*superSize)
	dev.Peek(slots, start)
	old, _ := readSuper(slots)
	j.super = super{gen: old.gen, seq: old.seq + 1}
	j.writeSuper(pmem.SrcForeground)
	return j
}

// Load mounts an existing journal, replaying the transaction that
// committed and was not retired, if there is one. It returns the journal
// and the number of transactions replayed, 0 or 1.
func Load(dev *pmem.Device, start, nblk int64) (*Journal, int, error) {
	j := &Journal{dev: dev, start: start, nblk: nblk}
	slots := make([]byte, 2*superSize)
	dev.ReadAt(slots, start, sim.CatJournal)
	var ok bool
	if j.super, ok = readSuper(slots); !ok {
		return nil, 0, errors.New("journal: no superblock record verifies")
	}
	read := func(p []byte, off int64) { dev.ReadAt(p, off, sim.CatJournal) }
	if n := j.live(read); n > 0 {
		// The scan pass verified the entry; the replay pass restores the
		// stamps to what the transaction left, and each block image,
		// read again into img, to its home location.
		for i := range j.stamps {
			j.stamps[i] = binary.LittleEndian.Uint64(j.img[commitStamps+8*i:])
		}
		for i := range n {
			read(j.img[:], j.blockOff(txStart+1+int64(i)))
			dev.StoreNT(int64(binary.LittleEndian.Uint64(j.hdr[descHomes+8*i:])), j.img[:], sim.CatPMMeta)
		}
		dev.Fence()
		j.seq++
		j.stats.Replayed = 1
	}
	// Everything replayed is durable; retire it.
	j.writeSuper(pmem.SrcForeground)
	return j, int(j.stats.Replayed), nil
}

func (j *Journal) blockOff(idx int64) int64 { return j.start + idx*sim.BlockSize }

// writeSuper persists the journal's state as the next superblock record.
func (j *Journal) writeSuper(src pmem.EventSource) {
	j.gen++
	rec := j.sb[:]
	binary.LittleEndian.PutUint32(rec[0:4], descMagic)
	binary.LittleEndian.PutUint64(rec[8:16], j.gen)
	binary.LittleEndian.PutUint64(rec[16:24], j.seq)
	binary.LittleEndian.PutUint64(rec[24:32], txStart)
	for i, v := range j.stamps {
		binary.LittleEndian.PutUint64(rec[32+8*i:], v)
	}
	binary.LittleEndian.PutUint32(rec[4:8], sim.CRC32C(0, rec[8:]))
	j.dev.As(src).PersistNT(j.start+int64(j.gen&1)*superSize, rec, sim.CatJournal)
}

// readSuper decodes the newer of the record slots that verify, if one does.
func readSuper(slots []byte) (s super, ok bool) {
	for ; len(slots) >= superSize; slots = slots[superSize:] {
		rec, gen := slots[:superSize], binary.LittleEndian.Uint64(slots[8:16])
		if binary.LittleEndian.Uint32(rec[0:4]) != descMagic || ok && gen < s.gen ||
			binary.LittleEndian.Uint32(rec[4:8]) != sim.CRC32C(0, rec[8:]) {
			continue
		}
		s, ok = super{gen: gen, seq: binary.LittleEndian.Uint64(rec[16:24])}, true
		for i := range s.stamps {
			s.stamps[i] = binary.LittleEndian.Uint64(rec[32+8*i:])
		}
	}
	return s, ok
}

// Tx is a running transaction. Not safe for concurrent use; the journal
// serializes commits internally.
type Tx struct {
	j *Journal
	// blocks are the device offsets of the home blocks noted, each once,
	// in the order they were first noted; seen is their set.
	blocks []int64
	seen   map[int64]struct{}
	stamps [Stamps]uint64 // zero: not set by this transaction
	closed bool
	logged int
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
	clear(tx.seen)
	*tx = Tx{j: j, blocks: tx.blocks[:0], seen: tx.seen}
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
	if tx.seen == nil {
		tx.seen = make(map[int64]struct{})
	}
	for b := off / sim.BlockSize * sim.BlockSize; b < off+int64(n); b += sim.BlockSize {
		if _, dup := tx.seen[b]; !dup {
			tx.seen[b] = struct{}{}
			tx.blocks = append(tx.blocks, b)
		}
	}
}

// Blocks reports how many distinct home blocks the transaction has noted:
// the block images its commit writes.
func (tx *Tx) Blocks() int { return len(tx.blocks) }

// Capacity is the most distinct blocks one transaction of a journal of
// nblk blocks can commit: what one descriptor lists, and what the region
// holds beside its superblock, descriptor and commit blocks.
func Capacity(nblk int64) int { return int(min(nblk-txStart-2, maxBlocksPerTx)) }

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

// txSum starts a transaction's checksum: CRC-32C, seeded with the folded
// sequence number, over the descriptor's header and its n home offsets.
// The block images continue it and the commit record stores the result,
// so a tear anywhere in the entry fails replay's comparison.
func txSum(seq uint64, desc []byte, n int) uint32 {
	return sim.CRC32C(uint32(seq^seq>>32), desc[:descHomes+8*n])
}

// Commit is CommitAs for the foreground.
func (tx *Tx) Commit() error { return tx.CommitAs(pmem.SrcForeground) }

// CommitAs durably applies the transaction under event source src. On
// return, every noted range is persistent, the stamps it set read their
// new values and the journal entry is already checkpointed. An empty
// transaction is free of journal IO; one that set stamps and noted
// nothing is a superblock write.
func (tx *Tx) CommitAs(src pmem.EventSource) error {
	if tx.closed {
		panic("journal: double commit")
	}
	tx.closed = true
	blocks := tx.blocks
	if len(blocks) == 0 && tx.stamps == [Stamps]uint64{} {
		return nil // Note keeps no empty range: nothing to log
	}
	j, w := tx.j, tx.j.dev.As(src)
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(blocks) > maxBlocksPerTx {
		return ErrTooLarge
	}
	if len(blocks) == 0 {
		j.raiseStamps(tx.stamps)
		j.writeSuper(src)
		return nil
	}

	if len(blocks) > Capacity(j.nblk) {
		return ErrFull
	}

	// 1. Descriptor block, over the last transaction's entry: its
	// checkpoint retired it before its commit returned.
	desc := j.hdr[:]
	clear(desc)
	binary.LittleEndian.PutUint32(desc[0:4], descMagic)
	binary.LittleEndian.PutUint64(desc[8:16], j.seq)
	binary.LittleEndian.PutUint32(desc[16:20], uint32(len(blocks)))
	for i, b := range blocks {
		binary.LittleEndian.PutUint64(desc[descHomes+i*8:], uint64(b))
	}
	sum := txSum(j.seq, desc, len(blocks))
	w.StoreNT(j.blockOff(txStart), desc, sim.CatJournal)

	// 2. Full block images, read back at cache speed from the volatile
	// view (the caller already stored its mutations there).
	img := j.img[:]
	for i, b := range blocks {
		j.dev.Peek(img, b)
		sum = sim.CRC32C(sum, img)
		w.StoreNT(j.blockOff(txStart+1+int64(i)), img, sim.CatJournal)
		j.stats.BlocksLogged++
	}
	// 3. Order images before the commit record, which carries every stamp
	// as this transaction leaves it.
	w.Fence()
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
	w.StoreNT(j.blockOff(txStart+1+int64(len(blocks))), commit, sim.CatJournal)
	w.Fence()

	// 4. Checkpoint: flush home locations so the entry can be retired.
	// Each touched block is flushed once, however many times it was
	// noted (jbd2 checkpoints each buffer once).
	for _, b := range blocks {
		w.Flush(b, sim.BlockSize, sim.CatPMMeta)
	}
	w.Fence()

	// 5. Retire the entry: the next transaction takes its blocks.
	j.seq++
	j.writeSuper(src)
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

// live is the scan pass over the entry at txStart, read with read: if
// it is transaction j.seq's, whole and committed, it returns its block
// count, with the descriptor (its home offsets) left in hdr and the
// commit record (its stamps) in img; otherwise 0. Each image streams
// through img into the checksum, so the scan allocates nothing, and a
// replay reads the images again (jbd2's recovery is likewise a scan
// pass, then a replay pass). Caller holds j.mu, or has the journal to
// itself.
func (j *Journal) live(read func(p []byte, off int64)) int {
	desc, img := j.hdr[:], j.img[:]
	read(desc, j.blockOff(txStart))
	count := int(binary.LittleEndian.Uint32(desc[16:20]))
	if binary.LittleEndian.Uint32(desc[0:4]) != descMagic || binary.LittleEndian.Uint64(desc[8:16]) != j.seq ||
		count == 0 || count > maxBlocksPerTx || txStart+int64(count)+2 > j.nblk {
		return 0
	}
	sum := txSum(j.seq, desc, count)
	for i := range count {
		read(img, j.blockOff(txStart+1+int64(i)))
		sum = sim.CRC32C(sum, img)
	}
	read(img, j.blockOff(txStart+1+int64(count)))
	if binary.LittleEndian.Uint32(img[0:4]) != commitMagic ||
		binary.LittleEndian.Uint64(img[8:16]) != j.seq ||
		binary.LittleEndian.Uint32(img[16:20]) != sim.CRC32C(sum, img[commitStamps:commitStamps+8*Stamps]) {
		return 0
	}
	return count
}

// Check verifies a journal at rest, as Load and every Commit leave it: the
// newer superblock record on media verifies and is the journal's state,
// and no committed entry awaits its retirement.
func (j *Journal) Check() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	slots := make([]byte, 2*superSize)
	j.dev.Peek(slots, j.start)
	if m, ok := readSuper(slots); !ok || m != j.super {
		return fmt.Errorf("journal: superblock record %+v (verifies: %v) is not the journal's %+v", m, ok, j.super)
	}
	if j.live(j.dev.Peek) > 0 {
		return fmt.Errorf("journal: not at rest: transaction %d committed and is not retired", j.seq)
	}
	return nil
}

// Stats returns journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}
