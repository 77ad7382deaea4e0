package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// Two-block transactions, each written from journal block 1 over the one
// before it: descriptor, two images, commit record.
const (
	liveTxs  = 3
	txBlocks = 2
)

// scribble is what a home block holds when its checkpoint never happened.
var scribble = bytes.Repeat([]byte{0xEE}, sim.BlockSize)

func txPattern(tx, blk int) []byte {
	return bytes.Repeat([]byte{byte(0x10*(tx+1) + blk + 1)}, sim.BlockSize)
}

func homeOff(tx, blk int) int64 { return metaBase + int64(tx*txBlocks+blk)*sim.BlockSize }

// liveJournal commits transactions 0 to live and takes the image back to
// where the last one committed and was never retired, as a crash between
// its commit record and its superblock write leaves it: the superblock
// names its sequence and the stamps before it, and its home blocks, and
// every later transaction's, hold garbage. The transactions before it
// were checkpointed, and its entry lies over theirs.
func liveJournal(t *testing.T, live int) *Journal {
	t.Helper()
	dev, j := testEnv(t)
	for tx := range live + 1 {
		h := j.Begin()
		for blk := range txBlocks {
			dev.Store(homeOff(tx, blk), txPattern(tx, blk), sim.CatPMMeta)
			h.Note(homeOff(tx, blk), sim.BlockSize)
		}
		setStamps(h, tx)
		if err := h.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for tx := live; tx < liveTxs; tx++ {
		for blk := range txBlocks {
			dev.PersistNT(homeOff(tx, blk), scribble, sim.CatPMMeta)
		}
	}
	j.seq, j.stamps = j.seq-1, stampsAfter(live)
	j.writeSuper(pmem.SrcForeground)
	return j
}

// setStamps has commit c raise two of the stamps: the first and the last,
// which in the commit record is the last summed word.
func setStamps(h *Tx, c int) {
	h.SetStamp(0, uint64(10*(c+1)))
	h.SetStamp(Stamps-1, uint64(7*(c+1)))
}

// stampsAfter is what the stamps read once n such commits landed.
func stampsAfter(n int) (s [Stamps]uint64) {
	s[0], s[Stamps-1] = uint64(10*n), uint64(7*n)
	return s
}

// restored reports how many leading transactions' home blocks hold their
// committed contents, and fails unless every later one still holds the
// garbage: whole transactions only, and none after a missing one.
func restored(t *testing.T, j *Journal) int {
	t.Helper()
	n := 0
	got := make([]byte, sim.BlockSize)
	for tx := range liveTxs {
		applied := 0
		for blk := range txBlocks {
			j.dev.ReadAt(got, homeOff(tx, blk), sim.CatPMMeta)
			switch {
			case bytes.Equal(got, txPattern(tx, blk)):
				applied++
			case !bytes.Equal(got, scribble):
				t.Fatalf("transaction %d block %d holds neither its image nor what was there", tx, blk)
			}
		}
		switch {
		case applied == txBlocks && n == tx:
			n++
		case applied != 0:
			t.Fatalf("transaction %d: %d of %d blocks restored after %d whole transactions", tx, applied, txBlocks, n)
		}
	}
	return n
}

// damage is one way a stored word goes wrong.
type damage struct {
	name string
	do   func(word []byte)
}

// damages are a single flipped bit and a zeroed 8-byte word — the unit
// the pmem model tears at.
var damages = []damage{
	{"flip-bit", func(w []byte) { w[3] ^= 0x10 }},
	{"zero-word", func(w []byte) { clear(w) }},
}

// TestLoadRejectsDamagedTransaction: whatever part of the live entry is
// damaged — an image, the descriptor's header or home list, the commit
// record — Load replays none of it, and the transactions before it stay
// as their checkpoints left them. Subtest txN damages an entry that lies
// over N checkpointed ones. The home list is the case the sum did not
// cover before CRC-32C (it summed the images only): a flipped home offset
// replayed a good image over the wrong block.
func TestLoadRejectsDamagedTransaction(t *testing.T) {
	j := liveJournal(t, liveTxs-1)
	if got, replayed, err := Load(j.dev, 0, 64); err != nil || replayed != 1 || restored(t, j) != liveTxs || got.Stamps() != stampsAfter(liveTxs) {
		t.Fatalf("undamaged journal: replayed %d (err %v), want the live transaction restored and its stamps", replayed, err)
	}
	// Offsets within the entry's four journal blocks.
	targets := []struct {
		name string
		off  int64
	}{
		{"descriptor magic", 0},
		{"descriptor seq", 8},
		{"descriptor count", 16},
		{"home list, first", descHomes},
		{"home list, last", descHomes + 8*(txBlocks-1)},
		{"first image", 1*sim.BlockSize + 1000},
		{"last image, last word", (txBlocks+1)*sim.BlockSize - 8},
		{"commit magic", (txBlocks + 1) * sim.BlockSize},
		{"commit seq", (txBlocks+1)*sim.BlockSize + 8},
		{"commit sum", (txBlocks+1)*sim.BlockSize + 16},
		{"commit stamps, first", (txBlocks+1)*sim.BlockSize + commitStamps},
		{"commit stamps, last", (txBlocks+1)*sim.BlockSize + commitStamps + 8*(Stamps-1)},
	}
	for victim := range liveTxs {
		for _, tgt := range targets {
			for _, dmg := range damages {
				t.Run(fmt.Sprintf("tx%d/%s/%s", victim, tgt.name, dmg.name), func(t *testing.T) {
					j := liveJournal(t, victim)
					off := j.blockOff(txStart) + tgt.off
					word := make([]byte, 8)
					j.dev.ReadAt(word, off, sim.CatJournal)
					was := bytes.Clone(word)
					dmg.do(word)
					if bytes.Equal(word, was) {
						t.Fatal("the damage changed nothing")
					}
					j.dev.PersistNT(off, word, sim.CatJournal)
					loaded, replayed, err := Load(j.dev, 0, 64)
					if err != nil {
						t.Fatal(err)
					}
					if got := restored(t, j); replayed != 0 || got != victim {
						t.Fatalf("replayed %d and restored %d transactions, want none replayed and the %d before the damaged one", replayed, got, victim)
					}
					if got := loaded.Stamps(); got != stampsAfter(victim) {
						t.Fatalf("stamps %v after %d transactions, want %v", got, victim, stampsAfter(victim))
					}
				})
			}
		}
	}
}

// smallBlocks is the smallest journal New formats, with room for entries
// of up to five blocks.
const smallBlocks = 8

// entries lists, by index from metaBase, the home blocks each transaction
// of commitSequence writes. The second is shorter than the first and the
// third longer than the second, so each entry lies over part of the one
// before it in the journal — the first's last image and commit record
// outlive the second — and each shares home blocks with the one before.
var entries = [liveTxs][]int{{0, 1, 2}, {0, 1}, {1, 2, 3}}

// homes is how many home blocks entries covers.
const homes = 4

// loaded is what Load hands recovery.
type loaded struct {
	seq    uint64
	stamps [Stamps]uint64
}

// commitSequence formats a small journal on a fresh device, calls armed,
// and runs 2*liveTxs-1 stamped commits: the liveTxs transactions of
// entries, over buffered stores — which, as K-Split's metadata does, reach
// the media through the journal or not at all — and between each two a
// commit that sets stamps and notes nothing, a superblock write alone, as
// U-Split's sync and strict metadata operations raise their log's stamp.
// It returns the device, the state after each commit and the device's
// event count there: [0] is the format's, [c] commit c's.
func commitSequence(t *testing.T, armed func(*pmem.Device)) (*pmem.Device, []loaded, []int64) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 4 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	j := New(dev, 0, smallBlocks)
	armed(dev)
	states, ends := []loaded{{j.seq, j.stamps}}, []int64{dev.Events()}
	for c := range 2*liveTxs - 1 {
		h := j.Begin()
		if c%2 == 0 {
			tx := c / 2
			for _, home := range entries[tx] {
				off := metaBase + int64(home)*sim.BlockSize
				dev.StoreBuffered(off, txPattern(tx, home), sim.CatPMMeta)
				h.Note(off, sim.BlockSize)
			}
		}
		setStamps(h, c)
		if err := h.Commit(); err != nil {
			t.Fatal(err)
		}
		states, ends = append(states, loaded{j.seq, j.stamps}), append(ends, dev.Events())
	}
	return dev, states, ends
}

// crashAndLoad crashes the device to the image of the armed point p,
// damages it, loads the journal, and holds what Load hands back against
// the states either side of the commit p's event fell in: the sequence and
// the stamps are those of one of the two, and every home block holds what
// the last transaction the sequence says committed wrote there, or zero.
// It reports whether the crashed image's entry was torn over its
// predecessor's: its descriptor carried the transaction in flight, which
// Load found uncommitted.
func crashAndLoad(t *testing.T, dev *pmem.Device, states []loaded, ends []int64, p pmem.CrashPoint, damage func()) (torn bool) {
	t.Helper()
	p.Crash(dev)
	damage()
	desc := make([]byte, descHomes)
	dev.Peek(desc, sim.BlockSize*txStart)
	j, _, err := Load(dev, 0, smallBlocks)
	if err != nil {
		t.Fatal(err)
	}
	c := 1
	for p.Ev.Seq > ends[c] {
		c++
	}
	before, after := states[c-1], states[c]
	got := loaded{j.seq, j.stamps}
	if got != after && got != before {
		t.Fatalf("crash at %v: Load returned %+v, want %+v or %+v", p, got, before, after)
	}
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, sim.BlockSize)
	for home := range homes {
		want := make([]byte, sim.BlockSize)
		for tx := range int(got.seq - 1) {
			if slices.Contains(entries[tx], home) {
				want = txPattern(tx, home)
			}
		}
		if dev.ReadAt(blk, metaBase+int64(home)*sim.BlockSize, sim.CatPMMeta); !bytes.Equal(blk, want) {
			t.Fatalf("sequence %d, but home block %d starts % x, want % x", got.seq, home, blk[:4], want[:4])
		}
	}
	return got == before && before.seq > 1 && binary.LittleEndian.Uint32(desc[0:4]) == descMagic &&
		binary.LittleEndian.Uint64(desc[8:16]) == before.seq
}

// TestLoadSurvivesDamagedSuperblock: the superblock is one record under one
// sum, written to the slot the previous write left alone. Damage the
// newest record — each word zeroed, as a tear would; a bit flipped in each
// field — right after each superblock write of commitSequence, the
// stamp-only commits' among them, and Load returns the state before that
// write or after it, nothing in between. (Before a commit's own write the
// journal still holds the entry, and replay arrives where the write would
// have.)
func TestLoadSurvivesDamagedSuperblock(t *testing.T) {
	type hit struct {
		name string
		at   int64
		mask byte // 0: zero the word at
	}
	hits := []hit{{"magic", 1, 4}, {"sum", 5, 4}}
	for w, field := range []string{"magic+sum", "gen", "tailSeq", "tail", "stamp0", "stamp1", "stamp2", "stamp3"} {
		hits = append(hits, hit{"zero/" + field, int64(8 * w), 0})
		if w > 0 {
			hits = append(hits, hit{"flip/" + field, int64(8 * w), 4})
		}
	}
	ref, states, ends := commitSequence(t, func(dev *pmem.Device) { dev.SetTracing(true) })
	writes := 0
	for _, ev := range ref.Trace() {
		if ev.Kind != pmem.EvStoreNT || ev.Off >= 2*superSize {
			continue // not a superblock record: the journal starts at 0
		}
		writes++
		fence := ev.Seq + 1 // PersistNT: the event that made the record durable
		for _, h := range hits {
			t.Run(fmt.Sprintf("write%d/%s", writes, h.name), func(t *testing.T) {
				dev, _, _ := commitSequence(t, func(dev *pmem.Device) { dev.ArmCrash(fence, nil) })
				crashAndLoad(t, dev, states, ends, pmem.CrashPoint{Ev: pmem.Event{Seq: fence}}, func() {
					word := make([]byte, 8)
					dev.ReadAt(word, ev.Off+h.at&^7, sim.CatJournal)
					if word[h.at&7] ^= h.mask; h.mask == 0 {
						clear(word)
					}
					dev.PersistNT(ev.Off+h.at&^7, word, sim.CatJournal)
				})
			})
		}
	}
	if want := 2*liveTxs - 1; writes != want {
		t.Fatalf("%d superblock writes traced, want %d: one per commit", writes, want)
	}
}

// TestLoadAfterCrashAtEveryEvent crashes at every persistence event of
// commitSequence, with the unfenced lines reverting whole, torn word by
// word three ways, or, at a non-temporal store, the store landing whole:
// Load finds the state before or after the commit in flight, blocks and
// stamps together.
func TestLoadAfterCrashAtEveryEvent(t *testing.T) {
	ref, states, ends := commitSequence(t, func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.Trace(), 3) {
		dev, _, _ := commitSequence(t, p.Arm)
		if !dev.CrashFired() {
			t.Fatalf("%v never came", p)
		}
		crashAndLoad(t, dev, states, ends, p, func() {})
		points++
	}
	t.Logf("%d crash points", points)
}

// TestTornEntryOverItsPredecessor: a transaction is written at block 1
// over its predecessor's entry, so a crash before its commit record is
// durable leaves an entry of both — the new descriptor, say, with the old
// images and commit record after it. Crashed at every event of the two
// transactions that follow another, lines reverted, torn three ways or a
// store landed, such an image loads as the predecessor's checkpoint left
// it: nothing replayed, every home block as it was. Some crash must leave
// the new descriptor durable, or the case was never made.
func TestTornEntryOverItsPredecessor(t *testing.T) {
	ref, states, ends := commitSequence(t, func(dev *pmem.Device) { dev.SetTracing(true) })
	made, points := 0, 0
	for p := range pmem.CrashPoints(ref.Trace(), 3) {
		// The transactions that follow another: commits 3, 5, ...
		if c, _ := slices.BinarySearch(ends, p.Ev.Seq); c < 3 || c%2 == 0 {
			continue
		}
		dev, _, _ := commitSequence(t, p.Arm)
		if crashAndLoad(t, dev, states, ends, p, func() {}) {
			made++
		}
		points++
	}
	if made == 0 {
		t.Fatal("no crash left a descriptor of the transaction in flight over its predecessor's entry")
	}
	t.Logf("%d of %d crash images held a torn entry over its predecessor's", made, points)
}

// TestLoadAfterCrashInReplay crashes at every persistence event of Load's
// replay of a committed transaction whose home blocks never got their
// checkpoint, and loads again: every home block holds its image and the
// stamps are the transaction's. Each crash is taken four ways: the
// unfenced lines revert whole, or tear word by word under two seeds, or the
// store in flight lands whole and nothing else unfenced does. Load's last
// store is the superblock record that retires the entry, so the replayed
// images must be fenced before it: a record that lands ahead of them leaves
// home blocks torn and no entry to replay them from.
func TestLoadAfterCrashInReplay(t *testing.T) {
	replay := func(arm func(*pmem.Device)) *Journal {
		j := liveJournal(t, liveTxs-1)
		arm(j.dev)
		if _, _, err := Load(j.dev, 0, 64); err != nil {
			t.Fatal(err)
		}
		return j
	}
	ref := replay(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.dev.Trace(), 2) {
		j := replay(p.Arm)
		p.Crash(j.dev)
		again, _, err := Load(j.dev, 0, 64)
		if err != nil {
			t.Fatalf("crash at %v: %v", p, err)
		}
		if got := restored(t, j); got != liveTxs || again.Stamps() != stampsAfter(liveTxs) {
			t.Fatalf("crash at %v: %d of %d transactions restored, stamps %v", p, got, liveTxs, again.Stamps())
		}
		points++
	}
	t.Logf("%d crash points", points)
}

// TestCommitAllocatesNoBlocks: Commit builds its descriptor, block image
// and commit record in scratch the journal owns. sim.CRC32C makes what it
// sums escape, so as locals of Commit the descriptor and the image are
// heap allocations — 8.6 KB per commit, and 100 MB of peak RSS on an
// fsync workload (DESIGN.md, "Checksums").
func TestCommitAllocatesNoBlocks(t *testing.T) {
	_, j := testEnv(t)
	commit := func() {
		tx := j.Begin()
		for blk := range 8 {
			tx.Note(metaBase+int64(blk)*sim.BlockSize+64, 128)
		}
		tx.SetStamp(1, j.seq)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		j.Recycle(tx)
	}
	for range 16 { // back the device under the journal region and the homes
		commit()
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		commit()
	}
	runtime.ReadMemStats(&after)
	perCommit := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("an 8-block commit allocates %d B", perCommit)
	// 360 B before the transaction, its range list and the home-block
	// list were recycled; < 1 KB is what a block buffer on the heap breaks.
	if perCommit >= 64 {
		t.Fatalf("an 8-block commit allocates %d B, want < 64: a block buffer or a per-commit list is on the heap", perCommit)
	}
}

// TestLoadAndCheckAllocateNoBlocks: Check of a journal at rest, and Load
// of a committed 8-block entry, read the descriptor, every image and the
// commit record into the journal's own scratch — Load's replay pass
// reads each image again — so Check allocates nothing and Load only the
// Journal it returns. With a fresh 4 KB buffer for each block they read,
// the mounts of CI's strict crashcheck step allocated 299 MB.
func TestLoadAndCheckAllocateNoBlocks(t *testing.T) {
	dev, j := testEnv(t)
	const blocks = 8
	tx := j.Begin()
	for blk := range blocks {
		dev.Store(metaBase+int64(blk)*sim.BlockSize, txPattern(0, blk), sim.CatPMMeta)
		tx.Note(metaBase+int64(blk)*sim.BlockSize, sim.BlockSize)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// unretire puts the superblock back to before the entry's retirement,
	// as a crash between the commit record and the superblock write
	// leaves it: the next Load replays the entry.
	unretire := func(j *Journal) {
		j.seq--
		j.writeSuper(pmem.SrcForeground)
	}
	load := func() *Journal {
		unretire(j)
		again, n, err := Load(dev, 0, 64)
		if err != nil || n != 1 {
			t.Fatalf("Load replayed %d (%v), want the committed entry", n, err)
		}
		return again
	}
	for range 4 { // back the device under the superblock slots
		j = load()
	}
	const runs = 200
	perRun := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	check := perRun(func() {
		if err := j.Check(); err != nil {
			t.Fatal(err)
		}
	})
	loaded := perRun(func() { j = load() })
	own := uint64(unsafe.Sizeof(Journal{}))
	t.Logf("Check at rest allocates %d B; Load of an %d-block entry %d B, of which the Journal is %d B", check, blocks, loaded, own)
	if check >= 1024 {
		t.Errorf("Check at rest allocates %d B, want < 1 KB: a block buffer is on the heap", check)
	}
	// The Journal rounds up to its allocation size class, and the
	// superblock slots are 128 B: a 4 KB buffer is past the bound.
	if loaded >= own+2048 {
		t.Errorf("Load of an %d-block entry allocates %d B, want < %d (the Journal and 2 KB): a block buffer is on the heap", blocks, loaded, own+2048)
	}
}

// TestConcurrentCommitsShareScratch: the scratch is one set of buffers per
// journal, so Commit may touch it only under j.mu. Transactions over
// disjoint blocks commit from several goroutines (run under -race in CI);
// every one must then be durable, and a Load of the image finds an empty,
// well-formed journal.
func TestConcurrentCommitsShareScratch(t *testing.T) {
	dev, j := testEnv(t)
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				tx := j.Begin()
				off := homeOff(w, 0) + int64(i)
				dev.Store(off, []byte{byte(w + 1)}, sim.CatPMMeta)
				tx.Note(off, 1)
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	if _, replayed, err := Load(dev, 0, 64); err != nil || replayed != 0 {
		t.Fatalf("Load after %d checkpointed commits: replayed %d, err %v", workers*each, replayed, err)
	}
	got := make([]byte, each)
	for w := range workers {
		dev.ReadAt(got, homeOff(w, 0), sim.CatPMMeta)
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(w + 1)}, each)) {
			t.Fatalf("worker %d's commits are not all durable: % x", w, got)
		}
	}
}

// TestCheckFindsAJournalNotAtRest: Check passes on a journal Commit left,
// and fails on a damaged newest superblock record, on a record that says
// other than the journal holds in memory, and on a live entry.
func TestCheckFindsAJournalNotAtRest(t *testing.T) {
	dev, _, _ := commitSequence(t, func(*pmem.Device) {})
	j, _, err := Load(dev, 0, smallBlocks)
	if err != nil || j.Check() != nil {
		t.Fatalf("a journal at rest: Load %v, Check %v", err, j.Check())
	}
	newest := j.start + int64(j.gen&1)*superSize
	dev.PersistNT(newest+40, []byte{0xff}, sim.CatJournal)
	if j.Check() == nil {
		t.Error("Check passed over a newest record that does not verify")
	}
	j.writeSuper(pmem.SrcForeground)
	j.stamps[1]++
	if j.Check() == nil {
		t.Error("Check passed with a stamp in memory that is not on media")
	}
	j.stamps[1]--
	if live := liveJournal(t, liveTxs-1); live.Check() == nil {
		t.Error("Check passed over a live entry")
	}
	if err := j.Check(); err != nil {
		t.Error(err)
	}
}
