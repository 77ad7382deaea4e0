package splitfs

import (
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// outgrowJournal leaves more dirty blocks in K-Split's running
// transaction than a 16-block journal can commit: directories made and
// filled below U-Split stay uncommitted (no fsync, and the caller's Mkfs
// put the note-count threshold out of the way), each dirtying a dirent
// block of its own. The next commit fails and consumes the transaction.
func outgrowJournal(t *testing.T, kfs *ext4dax.FS) {
	t.Helper()
	for i := 0; i < 24; i++ {
		dir := fmt.Sprintf("/d%02d", i)
		if err := kfs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		x, err := vfs.Create(kfs, dir+"/x")
		if err != nil {
			t.Fatal(err)
		}
		x.Close()
	}
}

// TestOpenFileFailedCommitReleasesHandle: an open whose own commit fails
// (sync and strict mode commit every metadata op) must give back the
// reference it took on the open-file description. It used to return the
// error with refs already bumped — and, on a first open, the kernel
// handle parked in the table — so no later close could ever be the last
// one: the description, its kernel handle and whatever was staged in it
// stayed behind for good.
func TestOpenFileFailedCommitReleasesHandle(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
			// A journal of 16 blocks commits at most 13 block images; the
			// note-count threshold is out of the way so that only an
			// explicit commit ever tries.
			kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 16, MaxInodes: 512, TxCommitThreshold: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := New(kfs, Config{Mode: mode, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			outgrowJournal(t, kfs)
			if _, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644); err == nil {
				t.Fatal("open committed a transaction larger than the journal")
			}
			// The failed commit consumed the oversized transaction; the file
			// system works again, and the file (created in DRAM) is there.
			f, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 6000), 0); err != nil {
				t.Fatal(err)
			}
			relinks := fs.Stats().Relinks
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if fs.Stats().Relinks == relinks {
				t.Error("the last close did not relink: the failed open still holds a reference")
			}
			fs.mu.RLock()
			n := len(fs.files)
			fs.mu.RUnlock()
			if n != 0 {
				t.Errorf("%d descriptions left in the open-file table after the last close", n)
			}
		})
	}
}
