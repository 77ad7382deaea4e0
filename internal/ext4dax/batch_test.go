package ext4dax

import (
	"testing"
	"time"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// The batch handle is what keeps a relink batch atomic against other
// journal users: while one is open, neither the size-threshold commit
// nor a concurrent CommitMeta may commit the running transaction.

func newBatchFS(t *testing.T) *FS {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := Mkfs(dev, Config{MaxInodes: 256, TxCommitThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestBatchBlocksThresholdCommit(t *testing.T) {
	fs := newBatchFS(t)
	f, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Stats().Commits
	batch := fs.BeginBatch()
	// Far more journaled ranges than TxCommitThreshold=4: without the
	// handle, maybeCommit would fire repeatedly.
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 32; i++ {
		if _, err := f.(*File).WriteAt(blk, int64(i)*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Stats().Commits; got != base {
		t.Fatalf("threshold commit fired inside an open batch: %d commits", got-base)
	}
	batch.End()
	fs.CommitMeta()
	if got := fs.Stats().Commits; got != base+1 {
		t.Fatalf("commit after Batch.End: %d commits, want 1", got-base)
	}
}

func TestLinkedTracksUnlink(t *testing.T) {
	fs := newBatchFS(t)
	f, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	kf := f.(*File)
	if !kf.Linked() {
		t.Fatal("fresh file reported unlinked")
	}
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if kf.Linked() {
		t.Fatal("handle still reported linked after unlink")
	}
	// Recycle the ino: the new file's handle is linked, the ghost is not.
	g, err := fs.OpenFile("/g", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*File).Ino() == kf.Ino() && kf.Linked() {
		t.Fatal("ghost handle claims the recycled inode")
	}
	if !g.(*File).Linked() {
		t.Fatal("new file reported unlinked")
	}
}

func TestCommitMetaWaitsForBatch(t *testing.T) {
	fs := newBatchFS(t)
	batch := fs.BeginBatch()
	done := make(chan struct{})
	go func() {
		fs.CommitMeta()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("CommitMeta returned while a batch handle was open")
	case <-time.After(20 * time.Millisecond):
	}
	batch.End()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("CommitMeta never woke after Batch.End")
	}
}

// relink1 is the one-move relink most tests want.
func relink1(b *Batch, src, dst *File, srcOff, dstOff, n, newDstSize int64) error {
	return b.Relink(dst, newDstSize, []Move{{Src: src, SrcOff: srcOff, DstOff: dstOff, Len: n}})
}

// Relink is the kernel half of the paper's relink primitive as one call
// of one move: it logically and atomically moves [srcOff, srcOff+n) of
// src to [dstOff, dstOff+n) of dst without copying data, extends dst to
// newDstSize if that is larger, and commits. The commit makes the move
// atomic; a crash before it leaves both files untouched.
func (fs *FS) Relink(src, dst *File, srcOff, dstOff, n int64, newDstSize int64) error {
	moves := []Move{{Src: src, SrcOff: srcOff, DstOff: dstOff, Len: n}}
	b, err := fs.BeginRelink(dst, moves)
	if err != nil {
		return err
	}
	err = b.Relink(dst, newDstSize, moves)
	txid := b.End()
	if err == nil {
		fs.CommitUpTo(txid)
	}
	return err
}

// beginRelink opens a relink batch into dst for moves.
func beginRelink(t testing.TB, fs *FS, dst *File, moves ...Move) *Batch {
	t.Helper()
	b, err := fs.BeginRelink(dst, moves)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchWritesEachInodeOnce: however many relink steps a batch makes
// between two files, and with the watermark riding along, End writes the
// source inode and the target inode back once each.
func TestBatchWritesEachInodeOnce(t *testing.T) {
	fs := newBatchFS(t)
	src, _ := vfs.Create(fs, "/src")
	if err := src.(*File).Preallocate(8, 0); err != nil {
		t.Fatal(err)
	}
	dst, _ := vfs.Create(fs, "/dst")
	fs.CommitMeta()
	clk := fs.Device().Clock()
	cpu := clk.Snapshot().ByCat[sim.CatCPU]
	var moves []Move
	for _, blk := range []int64{0, 2, 5} {
		moves = append(moves, Move{Src: src.(*File), SrcOff: blk * sim.BlockSize, DstOff: blk * sim.BlockSize, Len: sim.BlockSize})
	}
	batch := beginRelink(t, fs, dst.(*File), moves...)
	for _, blk := range []int64{0, 2, 5} {
		if err := relink1(batch, src.(*File), dst.(*File), blk*sim.BlockSize, blk*sim.BlockSize,
			sim.BlockSize, 6*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	batch.SetUserWatermark(dst.(*File), 42)
	if got := clk.Snapshot().ByCat[sim.CatCPU] - cpu; got != 0 {
		t.Fatalf("inode write-back (%d ns of CPU) before the batch closed", got)
	}
	txid := batch.End()
	// One write-back per inode, each an extent update plus the compare of
	// its record (neither file has an overflow block) against the cache.
	perInode := sim.Ext4ExtentUpdate.Fixed + sim.PMStore.Cost(inodeSize)
	if got := clk.Snapshot().ByCat[sim.CatCPU] - cpu; got != 2*perInode {
		t.Fatalf("batch close charged %d ns of inode write-back, want one per inode (%d)",
			got, 2*perInode)
	}
	fs.CommitUpTo(txid)
	// What End wrote is what a remount reads.
	fs2, _, err := Mount(fs.Device(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	si, _ := fs2.Stat("/src")
	di, _ := fs2.Stat("/dst")
	if si.Blocks != 5 || di.Blocks != 3 || di.Size != 6*sim.BlockSize {
		t.Fatalf("remounted: src %d blocks, dst %d blocks of size %d; want 5, 3, %d",
			si.Blocks, di.Blocks, di.Size, 6*sim.BlockSize)
	}
	g, _ := fs2.OpenFile("/dst", vfs.O_RDONLY, 0)
	if wm := g.(*File).UserWatermark(); wm != 42 {
		t.Fatalf("remounted watermark = %d, want 42", wm)
	}
}
