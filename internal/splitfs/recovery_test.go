package splitfs

import (
	"bytes"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Regression: a strict FS recovered from an image crashed before its
// first write (even before any op-log file became durable) must have a
// working operation log — the first post-recovery write used to find
// fs.olog unusable state — and everything the recovered instance sets up
// must itself be durable, so a second crash right after recovery+write
// still recovers the write.
func TestStrictRecoverFromPreFirstWriteCrash(t *testing.T) {
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: clk, TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 128 << 10}

	// Crash the image before a strict instance ever existed: no op-log
	// file, no staging directory.
	_ = kfs
	if err := dev.Crash(nil); err != nil {
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

	// The first strict write through the recovered instance must work
	// (it appends to the op log RecoverFS created).
	payload := []byte("first write after recovery")
	f, err := fs2.OpenFile("/post", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("first post-recovery strict write: %v", err)
	}

	// Crash again WITHOUT an fsync: the strict guarantee says the logged
	// write survives — which requires the op log and staging files
	// RecoverFS created to have durable metadata by the time the entry
	// was logged.
	if err := dev.Crash(sim.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	kfs3, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs3, report, err := RecoverFS(kfs3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed == 0 {
		t.Fatalf("unfsynced strict write not replayed: %+v", report)
	}
	got, err := vfs.ReadFile(fs3, "/post")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("post-recovery write lost: %q, want %q", got, payload)
	}
}

// TestReplayingALogPrefixAgainChangesNothing: RecoverFS zeroes the log
// after the commit that ends replay, and a crash while it does can leave
// any prefix of the log valid — words of the zeroed lines reach the media
// or not one by one — to be replayed over the image the first replay
// committed, with the crashed instance's staging files still there.
// Strict writes to two files — appends, overwrites of what earlier entries
// wrote, a rename between them — are crashed, and the recovery crashed at
// its first zeroing store, with every record after the k-th zeroed: the
// second recovery must leave the files as the first one did, for every k.
// It would not without the watermark replay moves past what it applied,
// as a relink does: the first append replayed again rolls back the
// overwrites logged after it (ROADMAP Known red (6)).
func TestReplayingALogPrefixAgainChangesNothing(t *testing.T) {
	scenario := func() (e *metaEnv, base int64, records int) {
		e = newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
		f, err := vfs.Create(e.fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		g, err := vfs.Create(e.fs, "/g")
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			f   vfs.File
			off int64
			n   int
		}{{f, 0, 6000}, {g, 0, 3000}, {f, 100, 300}, {f, 5000, 2000}, {g, 10, 50}, {f, 7000, 4096}, {f, 4000, 200}} {
			if _, err := w.f.WriteAt(pattern(w.n, byte(w.off)), w.off); err != nil {
				t.Fatal(err)
			}
			if w.off == 10 {
				if err := e.fs.Rename("/g", "/h"); err != nil {
					t.Fatal(err)
				}
			}
		}
		lf, err := e.fs.kfs.OpenFile(e.fs.opLogPath(), vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if base, _, err = oplogRegion(e.fs, lf.(*ext4dax.File)); err != nil {
			t.Fatal(err)
		}
		records = e.fs.olog.Entries()
		if e.fs.olog.Used() != int64(records)*logEntryBytes {
			t.Fatalf("%d records take %d bytes of log, not a line each", records, e.fs.olog.Used())
		}
		if err := e.dev.Crash(nil); err != nil {
			t.Fatal(err)
		}
		return e, base, records
	}
	// A recording recovery finds the first store that zeroes the log.
	rec, _, records := scenario()
	rec.dev.SetTracing(true)
	first := rec.remount(t)
	want := tree(t, rec.fs)
	var zeroing int64
	for _, ev := range rec.dev.Trace() {
		if ev.Kind == pmem.EvStoreNT && ev.Cat == sim.CatOpLog {
			zeroing = ev.Seq
			break
		}
	}
	// The rename relinked /g's two writes first (a rename flushes what its
	// source has staged), so five are left to replay.
	if first.Replayed != 5 || zeroing == 0 {
		t.Fatalf("recording recovery replayed %d writes, want 5, and zeroed the log at event %d: %+v", first.Replayed, zeroing, first)
	}
	for k := 1; k <= records; k++ {
		e, base, _ := scenario()
		e.dev.ArmCrash(zeroing, nil)
		e.remount(t) // runs to its end; the image froze at the zeroing store
		if err := e.dev.Crash(nil); err != nil {
			t.Fatal(err)
		}
		if k < records {
			past := int64(k+1) * logEntryBytes // the reserved first line, then k records
			e.dev.PersistNT(base+past, make([]byte, int64(records+1)*logEntryBytes-past), sim.CatOpLog)
		}
		again := e.remount(t)
		if again.Entries != k {
			t.Fatalf("prefix of %d records: recovery scanned %d", k, again.Entries)
		}
		if got := tree(t, e.fs); got != want {
			t.Fatalf("replaying the first %d of %d records again changed the files (%+v):\n got %s\nwant %s", k, records, again, got, want)
		}
		if err := e.fs.Check(); err != nil {
			t.Fatalf("prefix of %d records: %v", k, err)
		}
	}
}
