package journal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"splitfs/internal/sim"
)

// Three two-block transactions, laid out from journal block 1: descriptor,
// two images, commit record — four journal blocks each.
const (
	liveTxs   = 3
	txBlocks  = 2
	txJournal = txBlocks + 2
)

// scribble is what a home block holds when its checkpoint never happened.
var scribble = bytes.Repeat([]byte{0xEE}, sim.BlockSize)

func txPattern(tx, blk int) []byte {
	return bytes.Repeat([]byte{byte(0x10*(tx+1) + blk + 1)}, sim.BlockSize)
}

func homeOff(tx, blk int) int64 { return metaBase + int64(tx*txBlocks+blk)*sim.BlockSize }

// liveJournal commits liveTxs transactions and then takes the image back
// to where none of them was checkpointed: the superblock names the first
// as the tail and every home block holds garbage. (Commit checkpoints as
// it goes, so a crash leaves at most one such entry; Load scans a
// sequence all the same, and the tests want something before and after
// the transaction they damage.)
func liveJournal(t *testing.T) *Journal {
	t.Helper()
	dev, j := testEnv(t)
	for tx := range liveTxs {
		h := j.Begin()
		for blk := range txBlocks {
			dev.Store(homeOff(tx, blk), txPattern(tx, blk), sim.CatPMMeta)
			h.Note(homeOff(tx, blk), sim.BlockSize)
		}
		if err := h.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for tx := range liveTxs {
		for blk := range txBlocks {
			dev.PersistNT(homeOff(tx, blk), scribble, sim.CatPMMeta)
		}
	}
	j.tail, j.tailSeq = 1, 1
	j.writeSuper()
	return j
}

// restored reports how many leading transactions' home blocks hold their
// committed contents, and fails unless every later one still holds the
// garbage: replay applied a prefix, whole transactions only.
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

// TestLoadRejectsDamagedTransaction: whatever part of a committed entry is
// damaged — an image, the descriptor's header or home list, the commit
// record — Load replays the transactions before it whole and nothing from
// it on. The home list is the case the sum did not cover before CRC-32C
// (it summed the images only): a flipped home offset replayed a good
// image over the wrong block.
func TestLoadRejectsDamagedTransaction(t *testing.T) {
	j := liveJournal(t)
	if _, replayed, err := Load(j.dev, 0, 64); err != nil || replayed != liveTxs || restored(t, j) != liveTxs {
		t.Fatalf("undamaged journal: replayed %d (err %v), want %d transactions restored", replayed, err, liveTxs)
	}
	// Offsets within a transaction's four journal blocks.
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
	}
	for victim := range liveTxs {
		for _, tgt := range targets {
			for _, dmg := range damages {
				t.Run(fmt.Sprintf("tx%d/%s/%s", victim, tgt.name, dmg.name), func(t *testing.T) {
					j := liveJournal(t)
					off := j.blockOff(1+int64(victim)*txJournal) + tgt.off
					word := make([]byte, 8)
					j.dev.ReadAt(word, off, sim.CatJournal)
					was := bytes.Clone(word)
					dmg.do(word)
					if bytes.Equal(word, was) {
						t.Fatal("the damage changed nothing")
					}
					j.dev.PersistNT(off, word, sim.CatJournal)
					_, replayed, err := Load(j.dev, 0, 64)
					if err != nil {
						t.Fatal(err)
					}
					if got := restored(t, j); replayed != victim || got != victim {
						t.Fatalf("replayed %d and restored %d transactions, want the %d before the damaged one", replayed, got, victim)
					}
				})
			}
		}
	}
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
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
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
	if perCommit >= 1024 {
		t.Fatalf("an 8-block commit allocates %d B, want < 1024: a block buffer is on the heap", perCommit)
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
