package splitfs

import (
	"bytes"
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestAppendFsyncJournalsOneInodeTableImage pins what lowest-free inode
// numbers save (DESIGN.md, "Inode placement"). An unlink frees a number in
// the inode-table block that holds the staging file in use; the next
// create takes that number, so a relink's two inodes — the file and the
// staging file it relinks from — share a block, and each of the file's
// strict append + fsync commits journals that one image and nothing else.
// Next-fit hands the create the number after the last one it gave out, in
// another block, and every commit journals two.
func TestAppendFsyncJournalsOneInodeTableImage(t *testing.T) {
	e := newMetaEnv(t, Strict, ext4dax.Config{}, 1<<20)
	kfs := e.fs.kfs
	staging := e.fs.staging.ready[0].kf.Ino() // the first reservation's file
	// K-Split's inode records are 512 bytes: a table block holds this many.
	const inodesPerBlock = sim.BlockSize / 512
	var freed uint64
	for i := 0; freed == 0; i++ {
		p := fmt.Sprintf("/n%d", i)
		mustCreateClosed(t, e.fs, p, nil)
		if ino := mustStat(t, e.fs, p).Ino; ino/inodesPerBlock == staging/inodesPerBlock {
			if err := e.fs.Unlink(p); err != nil {
				t.Fatal(err)
			}
			freed = ino
		}
	}
	kfs.CommitMeta() // the free lands
	f, err := vfs.Create(e.fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if ino := mustStat(t, e.fs, "/f").Ino; ino != freed {
		t.Errorf("create took inode %d, not the freed %d beside the staging file's %d", ino, freed, staging)
	}
	kfs.CommitMeta() // the create's own images
	blk := bytes.Repeat([]byte{'x'}, sim.BlockSize)
	for i := range 8 {
		before := kfs.JournalStats()
		if _, err := f.Write(blk); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		after := kfs.JournalStats()
		if commits, images := after.Commits-before.Commits, after.BlocksLogged-before.BlocksLogged; commits != 1 || images != 1 {
			t.Fatalf("append + fsync %d: %d commits journaling %d block images, want 1 commit of 1 image", i, commits, images)
		}
	}
	if e.fs.staging.current.kf.Ino() != staging {
		t.Fatal("the appends were staged in another staging file")
	}
}
