package ext4dax

import (
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestCommitUpToAbsorbedByLeader verifies the jbd2 leader/follower
// contract: once any commit covers a transaction id, CommitUpTo for that
// id returns without journal IO of its own.
func TestCommitUpToAbsorbedByLeader(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{MaxInodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	txid := fs.TxID()
	// A "leader" (any other journal user) commits the shared transaction.
	fs.CommitMeta()
	commits := fs.Stats().Commits
	fences := dev.Stats().Fences
	// The follower's fsync finds its transaction already durable.
	fs.CommitUpTo(pmem.SrcForeground, txid)
	if got := fs.Stats().Commits; got != commits {
		t.Fatalf("absorbed CommitUpTo issued a commit (%d -> %d)", commits, got)
	}
	if got := dev.Stats().Fences; got != fences {
		t.Fatalf("absorbed CommitUpTo issued fences (%d -> %d)", fences, got)
	}
	if fs.DoneTxID() < txid {
		t.Fatalf("DoneTxID %d below committed id %d", fs.DoneTxID(), txid)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTxIDStableUnderBatch verifies the capture rule relink relies on:
// while a batch handle is open the transaction cannot commit, so the id
// taken inside the batch covers every note the batch made.
func TestTxIDStableUnderBatch(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{MaxInodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	batch := fs.BeginBatch()
	id1 := fs.TxID()
	f, err := vfs.Create(fs, "/b") // notes into the running transaction
	if err != nil {
		t.Fatal(err)
	}
	id2 := fs.TxID()
	if id1 != id2 {
		t.Fatalf("transaction id advanced inside an open batch: %d -> %d", id1, id2)
	}
	if got := batch.End(); got != id2 {
		t.Fatalf("Batch.End returned transaction %d, want the batch's %d", got, id2)
	}
	fs.CommitUpTo(pmem.SrcForeground, id2)
	if fs.DoneTxID() < id2 {
		t.Fatalf("batch transaction %d not committed (done %d)", id2, fs.DoneTxID())
	}
	// A fresh transaction gets a strictly larger id.
	if id3 := fs.TxID(); id3 <= id2 {
		t.Fatalf("new transaction id %d not monotone after %d", id3, id2)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTxIDOpensNoTransaction: asking which transaction runs when none does
// must not start one for CommitUpTo to retire — that is what the close (or
// fsync) of a file with nothing pending does. No id is taken, nothing is
// counted as a group commit on either side, and the journal sees nothing;
// an operation that arrives between the question and the commit is still
// covered.
func TestTxIDOpensNoTransaction(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{MaxInodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	next, stats, events := fs.nextTxID, fs.Stats(), dev.Events()
	for range 1000 {
		fs.CommitUpTo(pmem.SrcForeground, fs.TxID())
	}
	if fs.nextTxID != next || fs.Stats() != stats || dev.Events() != events {
		t.Fatalf("1000 commits of nothing: next id %d -> %d, stats %+v -> %+v, %d persistence events",
			next, fs.nextTxID, stats, fs.Stats(), dev.Events()-events)
	}
	id := fs.TxID()
	f, err := vfs.Create(fs, "/late") // starts the transaction TxID foresaw
	if err != nil {
		t.Fatal(err)
	}
	fs.CommitUpTo(pmem.SrcForeground, id)
	if fs.DoneTxID() < id || fs.Stats().GCLeaders != stats.GCLeaders+1 {
		t.Fatalf("the create that followed TxID is not committed: done %d, asked %d, %+v", fs.DoneTxID(), id, fs.Stats())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// DoneTxID reports the highest committed transaction id.
func (fs *FS) DoneTxID() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.doneTxID
}
