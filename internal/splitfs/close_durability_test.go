package splitfs

import (
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Regression (found by the served crash campaign, hand-minimized from a
// two-tenant schedule): close() is a relink point, so a successful close
// must leave the running journal transaction committed even when the
// file's staged ranges were already relinked by a concurrent fsync.
// Here that fsync is stood in for deterministically by Sync(): the
// write's relink commits there, the mkdir then joins a fresh
// transaction, and the buggy close — seeing nothing staged — returned
// without committing it, so a crash after the acknowledged close rolled
// the mkdir back.
func TestCloseCommitsPrecedingMetadata(t *testing.T) {
	for _, mode := range []Mode{POSIX, Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			clk := sim.NewClock()
			dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: clk, TrackPersistence: true})
			kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Mode: mode, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 128 << 10}
			fs, err := New(kfs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.OpenFile("/a", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, 982), 0); err != nil {
				t.Fatal(err)
			}
			// Relink + commit the staged write out from under the close.
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			if err := dev.Crash(sim.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
			kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
			if err != nil {
				t.Fatal(err)
			}
			fs2, _, err := RecoverFS(kfs2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs2.ReadDir("/d"); err != nil {
				t.Errorf("mkdir issued before an acknowledged close was lost by the crash: %v", err)
			}
		})
	}
}
