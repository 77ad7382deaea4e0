package ext4dax

import (
	"testing"
	"time"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// The batch handle is what keeps a relink batch atomic against other
// journal users: while one is open, neither a handle whose credit does not
// fit nor a concurrent CommitMeta may commit the running transaction.

func newBatchFS(t *testing.T) *FS {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := Mkfs(dev, Config{MaxInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestBatchBlocksCommit: on a 13-block journal, the credit floor, a
// metadata batch reserves all the room credits share, so every write that
// starts while one is open finds its credit does not fit. Each must wait
// for the batch to close, not commit the batch's half-done transaction
// under it.
func TestBatchBlocksCommit(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := Mkfs(dev, Config{JournalBlocks: 13, MaxInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if room := fs.lay.room(); room != metaCredit {
		t.Fatalf("a 13-block journal leaves credits %d blocks, want metaCredit (%d)", room, metaCredit)
	}
	f, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	fs.CommitMeta()
	base := fs.Stats().Commits
	batch := fs.BeginBatch()
	if _, err := fs.MkdirIno(batch, "/d", 0o755); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		blk := make([]byte, sim.BlockSize)
		for i := 0; i < 32; i++ {
			if _, err := f.(*File).WriteAt(blk, int64(i)*sim.BlockSize); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		t.Fatalf("32 writes went through inside an open batch (%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := fs.Stats().Commits; got != base {
		t.Fatalf("a write committed inside an open batch: %d commits", got-base)
	}
	batch.End()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the writes never went on after Batch.End")
	}
	fs.CommitMeta()
	if got := fs.Stats().Commits; got <= base {
		t.Fatalf("%d commits after Batch.End, want some", got-base)
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
	b, err := fs.BeginRelink(pmem.SrcForeground, dst, moves)
	if err != nil {
		return err
	}
	err = b.Relink(dst, newDstSize, moves)
	txid := b.End()
	if err == nil {
		fs.CommitUpTo(pmem.SrcForeground, txid)
	}
	return err
}

// beginRelink opens a relink batch into dst for moves.
func beginRelink(t testing.TB, fs *FS, dst *File, moves ...Move) *Batch {
	t.Helper()
	b, err := fs.BeginRelink(pmem.SrcForeground, dst, moves)
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
	fs.CommitUpTo(pmem.SrcForeground, txid)
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
