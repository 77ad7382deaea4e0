package splitfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestCheckpointAfterAnOutgrownJournalKeepsAcknowledgedWrites: a strict
// fsync whose transaction outgrew a 16-block journal used to fail at
// commit, after its relink had popped the overlay; the op log then held
// the write's only record, and the next log-full checkpoint relinked
// nothing, committed and zeroed it — /f was gone after a crash. With
// journal credits the running transaction commits before it outgrows the
// journal, the fsync succeeds, and the checkpoint zeroes a log whose
// records are all in the journal.
func TestCheckpointAfterAnOutgrownJournalKeepsAcknowledgedWrites(t *testing.T) {
	e := newMetaEnv(t, Strict, ext4dax.Config{JournalBlocks: 16}, 64<<10)
	fs := e.fs
	g, err := vfs.Create(fs, "/g")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := pattern(5000, 13)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	outgrowJournal(t, fs.kfs)
	syncErr := f.Sync()
	var appended []byte
	for ckpt := fs.Stats().Checkpoints; fs.Stats().Checkpoints == ckpt; {
		p := pattern(32, byte(len(appended)))
		if _, err := g.Write(p); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, p...)
	}
	e.recover(t, nil)
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("/f after recovery: %d bytes, %v; want the %d its write returned", len(got), err, len(payload))
	}
	if got, err := vfs.ReadFile(e.fs, "/g"); err != nil || !bytes.Equal(got, appended) {
		t.Fatalf("/g after recovery: %d bytes, %v; want the %d appended", len(got), err, len(appended))
	}
	if syncErr != nil {
		t.Fatalf("the fsync of /f failed: %v", syncErr)
	}
}

// leafOnAFullDevice fills a device, then overwrites every other block of
// the first 47 of /f, a 64-block strict file, so that its fsync would
// split its one extent into more records than the inode holds and needs
// an extent leaf no block is free for; that fsync fails with ErrNoSpace
// before any block moves — it used to panic in writeInode — the image
// passes Check, and the data stays staged and readable. It returns what
// /f holds and the K-Split file /filler that took the rest of the device.
func leafOnAFullDevice(t *testing.T) (dev *pmem.Device, kcfg ext4dax.Config, cfg Config, kfs *ext4dax.FS, fs *FS, f vfs.File, model []byte) {
	dev = pmem.New(pmem.Config{Size: 16 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kcfg = ext4dax.Config{JournalBlocks: 64, MaxInodes: 256}
	kfs, err := ext4dax.Mkfs(dev, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20}
	if fs, err = New(kfs, cfg); err != nil {
		t.Fatal(err)
	}
	if f, err = vfs.Create(fs, "/f"); err != nil {
		t.Fatal(err)
	}
	model = pattern(64*sim.BlockSize, 1)
	if _, err := f.Write(model); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	filler, err := vfs.Create(kfs, "/filler")
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = filler.Write(make([]byte, sim.BlockSize))
	}
	filler.Close()
	for blk := int64(0); blk <= 46; blk += 2 {
		p := pattern(sim.BlockSize, byte(blk))
		if _, err := f.WriteAt(p, blk*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		copy(model[blk*sim.BlockSize:], p)
	}
	if err := f.Sync(); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("the fsync on a full device: err = %v, want ErrNoSpace", err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(fs, "/f"); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("/f after the refused fsync: %d bytes, %v; want its %d staged", len(got), err, len(model))
	}
	return dev, kcfg, cfg, kfs, fs, f, model
}

// TestRelinkNeedingALeafOnAFullDevice: the fsync leafOnAFullDevice refused
// goes through once /filler is unlinked — with no commit asked for: its
// relink batch claims a block for its leaf, finds none free while the
// running transaction holds the unlink's frees, and commits them first
// (ext4_should_retry_alloc) — and a crash then finds it.
func TestRelinkNeedingALeafOnAFullDevice(t *testing.T) {
	dev, kcfg, cfg, kfs, fs, f, model := leafOnAFullDevice(t)
	if err := kfs.Unlink("/filler"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("the fsync with space freed: %v", err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs, _, err := ext4dax.Mount(dev, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs, _, err = RecoverFS(kfs, cfg); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(fs, "/f"); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("/f after the crash: %d bytes, %v; want %d", len(got), err, len(model))
	}
}

// TestRecoverOnAFullDevice: leafOnAFullDevice's device crashes with the
// overwrites staged and logged. Recovery unlinks the old staging files and
// preallocates new ones before it replays the log; the unlinks' frees have
// not committed when it does, and the device has no other free block, so
// the preallocation commits them first. Recovery succeeds, /f holds every
// logged overwrite, and the image passes Check.
func TestRecoverOnAFullDevice(t *testing.T) {
	dev, kcfg, cfg, _, _, _, model := leafOnAFullDevice(t)
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs, _, err := ext4dax.Mount(dev, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := RecoverFS(kfs, cfg)
	if err != nil {
		t.Fatalf("recovery on a full device: %v", err)
	}
	if got, err := vfs.ReadFile(fs, "/f"); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("/f after recovery: %d bytes, %v; want %d", len(got), err, len(model))
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHandlesOnASmallJournal: in every mode, four goroutines
// create, write, fsync, rename, unlink and make and remove directories on
// a 16-block journal, so that handles keep finding the transaction full while other goroutines'
// batches hold it open: they wait for the batches, or commit first, and
// no commit fails, nothing deadlocks, and the image passes Check before
// and after a crash.
func TestConcurrentHandlesOnASmallJournal(t *testing.T) {
	for _, mode := range []Mode{POSIX, Sync, Strict} {
		e := newMetaEnv(t, mode, ext4dax.Config{JournalBlocks: 16}, 256<<10)
		fs := e.fs
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dir := fmt.Sprintf("/w%d", g)
				if err := fs.Mkdir(dir, 0o755); err != nil {
					t.Error(err)
					return
				}
				for i := range 60 {
					p := fmt.Sprintf("%s/f%d", dir, i%7)
					f, err := fs.OpenFile(p, vfs.O_CREATE|vfs.O_RDWR, 0o644)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := f.WriteAt(pattern(100+i*37, byte(i)), int64(i%5)*5000+int64(i%3)); err != nil {
						t.Error(err)
					}
					if i%2 == 0 {
						if err := f.Sync(); err != nil {
							t.Error(err)
						}
					}
					f.Close()
					switch i % 4 {
					case 1:
						fs.Rename(p, p+"r")
					case 2:
						fs.Unlink(p)
					case 3:
						fs.Mkdir(p+"d", 0o755)
						fs.Rmdir(p + "d")
					}
				}
			}()
		}
		wg.Wait()
		if err := fs.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Check(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		e.recover(t, nil)
		if err := e.fs.Check(); err != nil {
			t.Fatalf("%v, after the crash: %v", mode, err)
		}
	}
}

// TestStrictFsyncAcrossManyStagingFiles: a strict fsync of 12 MB of
// appends, staged across a dozen 1 MB staging files, on a 32-block
// journal. Its relink batch's credit counts the extents its moves take,
// not the blocks they cover — a credit of a block each refused it with
// ErrNoSpace, and every later fsync with it. It goes through, and the data
// reads back before and after a crash.
func TestStrictFsyncAcrossManyStagingFiles(t *testing.T) {
	e := newMetaEnv(t, Strict, ext4dax.Config{JournalBlocks: 32}, 256<<10)
	f, err := vfs.Create(e.fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(12<<20, 5)
	for off := 0; off < len(data); off += 64 << 10 {
		if _, err := f.Write(data[off : off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("the fsync of 12 MB: %v", err)
	}
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("/f: %d bytes, %v; want %d", len(got), err, len(data))
	}
	e.recover(t, nil)
	if got, err := vfs.ReadFile(e.fs, "/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("/f after the crash: %d bytes, %v; want %d", len(got), err, len(data))
	}
}

// TestPartialBlockCopyOnAFullDevice: on a full device, a strict write of
// 100 bytes into a hole of a sparse file needs a block for the partial
// block its fsync copies through the kernel, and none is free. The fsync
// fails with ErrNoSpace, the relink having moved nothing, and the write
// stays staged: it reads back — it used to read as zeros once the fsync
// had popped the overlay, and the next log-full checkpoint dropped its
// only record. Once space is freed the fsync goes through, and a crash
// finds the write.
func TestPartialBlockCopyOnAFullDevice(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 16 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kcfg := ext4dax.Config{JournalBlocks: 64, MaxInodes: 256}
	kfs, err := ext4dax.Mkfs(dev, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20}
	fs, err := New(kfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 20*sim.BlockSize+1)
	model[len(model)-1] = 7
	if _, err := f.WriteAt(model[len(model)-1:], int64(len(model)-1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	filler, err := vfs.Create(kfs, "/filler")
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = filler.Write(make([]byte, sim.BlockSize))
	}
	filler.Close()
	p := pattern(100, 9)
	if _, err := f.WriteAt(p, 3*sim.BlockSize+10); err != nil {
		t.Fatal(err)
	}
	copy(model[3*sim.BlockSize+10:], p)
	if err := f.Sync(); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("the fsync on a full device: err = %v, want ErrNoSpace", err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(fs, "/f"); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("/f after the refused fsync: %v; the 100 bytes read back %v", err, bytes.Equal(got, model))
	}
	if err := kfs.Unlink("/filler"); err != nil {
		t.Fatal(err)
	}
	kfs.CommitMeta()
	if err := f.Sync(); err != nil {
		t.Fatalf("the fsync with space freed: %v", err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	if kfs, _, err = ext4dax.Mount(dev, kcfg); err != nil {
		t.Fatal(err)
	}
	if fs, _, err = RecoverFS(kfs, cfg); err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(fs, "/f"); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("/f after the crash: %v; the 100 bytes read back %v", err, bytes.Equal(got, model))
	}
}
