package splitfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// fillInodeTable creates empty files through K-Split until the inode table
// is full, then unlinks the first of them and commits: the next create
// takes that one number whatever the allocator's policy, next-fit or
// lowest-free.
func fillInodeTable(t testing.TB, fs *FS) {
	t.Helper()
	for i := 0; ; i++ {
		f, err := vfs.Create(fs.kfs, fmt.Sprintf("/fill%d", i))
		if errors.Is(err, vfs.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	freeFillers(t, fs, 0, 1)
}

// freeFillers unlinks fillers [from, to) and commits the frees.
func freeFillers(t testing.TB, fs *FS, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := fs.kfs.Unlink(fmt.Sprintf("/fill%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.kfs.CommitMeta()
}

// TestDirectoryOnAReusedNumberSkipsOldEntries: a strict write entry names
// its target by inode number, and a directory that took the number after
// the file was unlinked is not what the entry wrote to. Recovery skips the
// entry; it used to fail, "open /d: is a directory".
func TestDirectoryOnAReusedNumberSkipsOldEntries(t *testing.T) {
	e := newMetaEnv(t, Strict, ext4dax.Config{MaxInodes: 64}, 1<<20)
	fillInodeTable(t, e.fs)
	mustCreateClosed(t, e.fs, "/f", []byte("staged, logged, relinked at close"))
	ino := mustStat(t, e.fs, "/f").Ino
	if err := e.fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	e.fs.kfs.CommitMeta()
	if err := e.fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if got := mustStat(t, e.fs, "/d").Ino; got != ino {
		t.Fatalf("mkdir took inode %d, not the unlinked file's %d", got, ino)
	}
	freeFillers(t, e.fs, 1, 5) // room for recovery's fresh staging files
	e.recover(t, sim.NewRNG(1))
	if info := mustStat(t, e.fs, "/d"); !info.IsDir || info.Ino != ino {
		t.Fatalf("recovered /d = %+v, want the directory at inode %d", info, ino)
	}
}

// TestStagingFileOnAReusedNumberMasksOldEntries: a staging file that took
// the number of an unlinked file, whose staged range a truncating open
// dropped unrelinked, must not receive that file's logged writes at
// recovery. It used to: replay copied the dead file's bytes into the new
// staging file, over the staged data of a live file, and recovery then
// copied those bytes into the live file — silent data loss.
func TestStagingFileOnAReusedNumberMasksOldEntries(t *testing.T) {
	e := newMetaEnv(t, Strict, ext4dax.Config{MaxInodes: 64}, 1<<20)
	g, err := vfs.Create(e.fs, "/g")
	if err != nil {
		t.Fatal(err)
	}
	fillInodeTable(t, e.fs)
	ino := dropAndUnlink(t, e.fs, "/dead")

	// The live file outgrows both staging files: the third takes the
	// dead file's number, the only one free, and stages the live file's
	// last bytes from its first block on.
	want := bytes.Repeat([]byte{'g'}, 5<<19)
	for off := 0; off < len(want); off += 64 << 10 {
		if _, err := g.Write(want[off : off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.fs.staging.current.kf.Ino(); got != ino {
		t.Fatalf("the staging file in use is inode %d, not the dead file's %d", got, ino)
	}
	freeFillers(t, e.fs, 1, 5) // room for recovery's fresh staging files
	report := e.recover(t, sim.NewRNG(1))
	got, err := vfs.ReadFile(e.fs.kfs, "/g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := firstDiff(got, want)
		t.Fatalf("recovered /g differs from byte %d of %d (%d bytes; %q there) %+v",
			i, len(want), len(got), got[i:min(i+4, len(got))], report)
	}
}

// TestOtherModeOnAReusedNumberMasksOldEntries: instances of different
// modes share one K-Split, so the number a strict instance's dead file
// freed can go to a sync or POSIX instance's create, which sets no
// watermark of its own. The strict log's entries for the dead file must
// still not reach the new file at recovery: K-Split starts every new
// inode at the highest watermark it has seen.
func TestOtherModeOnAReusedNumberMasksOldEntries(t *testing.T) {
	for _, mode := range []Mode{Sync, POSIX} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, Strict, ext4dax.Config{MaxInodes: 64}, 1<<20)
			cfg := e.cfg
			cfg.Mode = mode
			other, err := New(e.fs.kfs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fillInodeTable(t, e.fs)
			ino := dropAndUnlink(t, e.fs, "/dead")
			want := []byte("the new file's own bytes")
			mustCreateClosed(t, other, "/h", want)
			if got := mustStat(t, e.fs, "/h").Ino; got != ino {
				t.Fatalf("the %v create took inode %d, not the dead file's %d", mode, got, ino)
			}
			freeFillers(t, e.fs, 1, 5) // room for recovery's fresh staging files
			report := e.recover(t, sim.NewRNG(1))
			got, err := vfs.ReadFile(e.fs.kfs, "/h")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered /h = %q (%d bytes), want %q %+v", got[:min(len(got), 32)], len(got), want, report)
			}
		})
	}
}

// dropAndUnlink leaves a strict log holding write entries for a dead file:
// it creates path, stages two blocks into it, drops them unrelinked with a
// truncating open, unlinks the file and commits. Returns the freed number.
func dropAndUnlink(t testing.TB, fs *FS, path string) uint64 {
	t.Helper()
	dead, err := vfs.Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	ino := mustStat(t, fs, path).Ino
	if _, err := dead.Write(bytes.Repeat([]byte{'A'}, 2*sim.BlockSize)); err != nil {
		t.Fatal(err)
	}
	trunc, err := fs.OpenFile(path, vfs.O_RDWR|vfs.O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []vfs.File{trunc, dead} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unlink(path); err != nil {
		t.Fatal(err)
	}
	fs.kfs.CommitMeta()
	return ino
}

// mustStat stats through K-Split, which logs nothing.
func mustStat(t testing.TB, fs *FS, path string) vfs.FileInfo {
	t.Helper()
	info, err := fs.kfs.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRecoveryUnlinksOnlyItsOwnStagingFiles: a POSIX and a strict
// instance, made in that order, share one K-Split. The strict one
// creates /a and fsyncs it,
// writes 8 KB, the write returns (logged, its data in a strict staging
// file), and the device crashes. Recovered in either order, the two give the 8 KB back: each
// recovery unlinks only the staging files its own mode named. Recovering
// the POSIX instance first used to unlink the strict instance's staging
// files too, and the strict replay then found nothing to relink.
func TestRecoveryUnlinksOnlyItsOwnStagingFiles(t *testing.T) {
	want := bytes.Repeat([]byte("strict!!"), 1<<10)
	for _, order := range [][]Mode{{Strict, POSIX}, {POSIX, Strict}} {
		t.Run(fmt.Sprintf("%v-first", order[0]), func(t *testing.T) {
			dev, posix := newEnv(t, POSIX)
			cfg := posix.cfg
			cfg.Mode = Strict
			strict, err := New(posix.kfs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := vfs.Create(strict, "/a")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(want); err != nil {
				t.Fatal(err)
			}
			if err := dev.Crash(sim.NewRNG(14)); err != nil {
				t.Fatal(err)
			}
			kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range order {
				cfg.Mode = mode
				if _, _, err := RecoverFS(kfs, cfg); err != nil {
					t.Fatalf("recovering %v: %v", mode, err)
				}
			}
			if got, err := vfs.ReadFile(kfs, "/a"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("/a: %d bytes back (%v), want the %d the strict write returned", len(got), err, len(want))
			}
		})
	}
}

// TestRecoveredInstanceStagesOnDemand: a recovered strict instance starts
// with no staging file. Crashed with a staging file holding a logged
// append, or before any instance made the staging directory, RecoverFS
// leaves the directory and no staging file of its mode in it; the first
// append and fsync after it creates stage-strict-0, and that append, and
// a logged one after it, survive a second crash and recovery.
func TestRecoveredInstanceStagesOnDemand(t *testing.T) {
	cfg := Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 128 << 10}
	for _, used := range []bool{true, false} {
		t.Run(fmt.Sprintf("instance-before-crash=%v", used), func(t *testing.T) {
			dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
			kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 512})
			if err != nil {
				t.Fatal(err)
			}
			if used {
				fs, err := New(kfs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				f, err := vfs.Create(fs, "/a")
				if err == nil {
					_, err = f.Write(bytes.Repeat([]byte("a"), 8<<10))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			crashAndRecover := func(seed uint64) *FS {
				t.Helper()
				if err := dev.Crash(sim.NewRNG(seed)); err != nil {
					t.Fatal(err)
				}
				kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
				if err != nil {
					t.Fatal(err)
				}
				fs, _, err := RecoverFS(kfs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			}
			staged := func(fs *FS) (names []string) {
				t.Helper()
				ents, err := fs.kfs.ReadDir(stagingDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if strings.HasPrefix(e.Name, stagePrefix(Strict)) {
						names = append(names, e.Name)
					}
				}
				return names
			}

			fs := crashAndRecover(14)
			if names := staged(fs); len(names) != 0 || fs.StagingFilesCreated() != 0 {
				t.Fatalf("after recovery: staging files %v, %d created; want none", names, fs.StagingFilesCreated())
			}
			first, second := bytes.Repeat([]byte("b"), 6<<10), []byte("logged, not fsynced")
			f, err := vfs.Create(fs, "/b")
			if err == nil {
				_, err = f.Write(first)
			}
			if err == nil {
				err = f.Sync()
			}
			if err != nil {
				t.Fatal(err)
			}
			if names := staged(fs); !slices.Equal(names, []string{"stage-strict-0"}) || fs.StagingFilesCreated() != 1 {
				t.Fatalf("after the first append and fsync: staging files %v, %d created; want [stage-strict-0], 1",
					names, fs.StagingFilesCreated())
			}
			if _, err := f.Write(second); err != nil {
				t.Fatal(err)
			}
			fs = crashAndRecover(15)
			if got, err := vfs.ReadFile(fs, "/b"); err != nil || !bytes.Equal(got, append(first, second...)) {
				t.Fatalf("/b after a second crash: %d bytes (%v), want the %d appended", len(got), err, len(first)+len(second))
			}
		})
	}
}
