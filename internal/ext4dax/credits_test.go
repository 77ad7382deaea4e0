package ext4dax

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestMkfsRefusesAJournalBelowTheCreditFloor: a journal must hold the
// largest metadata handle beside its superblock, descriptor and commit
// blocks and the device's bitmap blocks, one of inodes and one of data
// blocks here. Below that Mkfs returns an error — it used to panic in
// journal.New for 1 to 7 blocks — and at it Mkfs formats.
func TestMkfsRefusesAJournalBelowTheCreditFloor(t *testing.T) {
	floor := int64(metaCredit + 3 + 2)
	for blocks := int64(1); blocks <= floor; blocks++ {
		dev := pmem.New(pmem.Config{Size: 16 << 20, Clock: sim.NewClock()})
		_, err := Mkfs(dev, Config{JournalBlocks: blocks, MaxInodes: 64})
		if (err == nil) != (blocks == floor) {
			t.Errorf("a journal of %d blocks: Mkfs err = %v; the floor is %d", blocks, err, floor)
		}
	}
}

// TestLeafOnAFullDeviceIsRefused: a write or a preallocation that gives a
// file of InlineExtents records one more needs an extent leaf. On a
// device whose last free block the call itself would take, it fails with
// ErrNoSpace before anything changes — it used to panic in writeInode —
// and goes through once a block is free.
func TestLeafOnAFullDeviceIsRefused(t *testing.T) {
	for name, op := range map[string]func(f *File) error{
		"write": func(f *File) error {
			_, err := f.WriteAt(make([]byte, sim.BlockSize), 2*InlineExtents*sim.BlockSize)
			return err
		},
		"preallocate": func(f *File) error { return f.Preallocate(1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			_, fs := newFS(t)
			f := sparseFile(t, fs, "/f", InlineExtents)
			filler, _ := vfs.Create(fs, "/filler")
			if err := filler.(*File).Preallocate(fs.FreeBlocks()-1, 0); err != nil {
				t.Fatal(err)
			}
			before, _ := f.Stat()
			if err := op(f); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("with one block free: err = %v, want ErrNoSpace", err)
			}
			if after, _ := f.Stat(); after != before || fs.FreeBlocks() != 1 {
				t.Fatalf("the refused call changed /f %+v -> %+v, free blocks 1 -> %d", before, after, fs.FreeBlocks())
			}
			if _, err := fs.Check(); err != nil {
				t.Fatal(err)
			}
			if err := filler.Truncate(sim.BlockSize); err != nil {
				t.Fatal(err)
			}
			fs.CommitMeta()
			if err := op(f); err != nil {
				t.Fatalf("with blocks free again: %v", err)
			}
			if len(f.in.overflow) != 1 {
				t.Fatalf("/f has %d leaves, want 1", len(f.in.overflow))
			}
			if _, err := fs.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFullDeviceCommitsFreesAndRetries: on a device a truncate has just
// emptied of its last free blocks, an allocating write or a preallocation
// claims blocks and finds none free — the truncate's frees wait for its
// commit — so it commits the running transaction first, as ext4 commits
// when an allocation has to wait for frees (ext4_should_retry_alloc), and
// goes through. A write under a batch
// handle opened before the truncate cannot commit the transaction its own
// handle holds open, and is refused. (A batch opened after it commits the
// frees first: TestCreateCommitsWhatAnUnlinkFreed.)
func TestFullDeviceCommitsFreesAndRetries(t *testing.T) {
	for name, op := range map[string]func(f *File) error{
		"write": func(f *File) error {
			_, err := f.WriteAt(make([]byte, 4*sim.BlockSize), 0)
			return err
		},
		"preallocate": func(f *File) error { return f.Preallocate(4, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			_, fs := newFS(t)
			f, _ := vfs.Create(fs, "/f")
			filler, _ := vfs.Create(fs, "/filler")
			if err := filler.(*File).Preallocate(fs.FreeBlocks(), 0); err != nil {
				t.Fatal(err)
			}
			b := fs.BeginBatch()
			if err := filler.Truncate(0); err != nil {
				t.Fatal(err)
			}
			_, err := f.(*File).WriteAtIn(b, make([]byte, sim.BlockSize), 0)
			b.End()
			if !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("a write under a batch with the frees uncommitted: err = %v, want ErrNoSpace", err)
			}
			commits := fs.Stats().Commits
			if err := op(f.(*File)); err != nil {
				t.Fatalf("with the frees uncommitted: %v", err)
			}
			if fs.Stats().Commits == commits {
				t.Fatal("the call went through without committing the frees")
			}
			if _, err := fs.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoCommitFailsOnASmallJournal: random K-Split operations — mkdir,
// create, write, truncate, unlink, rename, rmdir and relink batches — on
// a 16-block journal. Every commit goes through (a failed one panics in
// commitTx), credits are what commit along the way, and the image passes
// Check after each operation and after a crash and Mount.
func TestNoCommitFailsOnASmallJournal(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
		fs, err := Mkfs(dev, Config{JournalBlocks: 16, MaxInodes: 256})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		path := func() string { return fmt.Sprintf("/d%d/f%d", rng.Intn(4), rng.Intn(12)) }
		for d := range 4 {
			if err := fs.Mkdir(fmt.Sprintf("/d%d", d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		src, _ := vfs.Create(fs, "/src")
		if err := src.(*File).Preallocate(4096, 0); err != nil {
			t.Fatal(err)
		}
		next := int64(0) // the next block of /src to move
		for i := range 400 {
			var err error
			switch p := path(); rng.Intn(9) {
			case 0:
				err = fs.Mkdir(p+"d", 0o755)
			case 1, 2:
				var f vfs.File
				if f, err = fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0o644); err == nil {
					_, err = f.WriteAt(make([]byte, 1+rng.Intn(3*sim.BlockSize)), int64(rng.Intn(64))*sim.BlockSize)
					f.Close()
				}
			case 3:
				var f vfs.File
				if f, err = fs.OpenFile(p, vfs.O_RDWR, 0); err == nil {
					err = f.Truncate(int64(rng.Intn(32 * sim.BlockSize)))
					f.Close()
				}
			case 4:
				err = fs.Unlink(p)
			case 5:
				err = fs.Rename(p, path())
			case 6:
				err = fs.Rmdir(p + "d")
			case 7, 8: // a strict fsync, or half of one: one-block moves into scattered holes of a file
				var f vfs.File
				if f, err = fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0o644); err != nil {
					break
				}
				var moves []Move
				for k := range 1 + rng.Intn(6) {
					moves = append(moves, Move{Src: src.(*File), SrcOff: next * sim.BlockSize,
						DstOff: int64(2*k+rng.Intn(2)+4*rng.Intn(40)) * sim.BlockSize, Len: sim.BlockSize})
					next++
				}
				var b *Batch
				if b, err = fs.BeginRelink(pmem.SrcForeground, f.(*File), moves); err == nil {
					if err = b.Relink(f.(*File), 0, moves); errors.Is(err, vfs.ErrInval) {
						err = nil // two moves landed on one block
					}
					b.SetUserWatermark(f.(*File), uint64(i))
					if txid := b.End(); rng.Intn(2) == 0 {
						fs.CommitUpTo(pmem.SrcForeground, txid)
					}
				}
				f.Close()
			}
			if err != nil && !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrExist) &&
				!errors.Is(err, vfs.ErrNotEmpty) && !errors.Is(err, vfs.ErrIsDir) && !errors.Is(err, vfs.ErrNotDir) {
				t.Fatalf("seed %d, op %d: %v", seed, i, err)
			}
			if _, err := fs.Check(); err != nil {
				t.Fatalf("seed %d, op %d: %v", seed, i, err)
			}
		}
		if fs.Stats().Commits < 10 {
			t.Fatalf("seed %d: %d commits: the credits never filled the journal", seed, fs.Stats().Commits)
		}
		if err := dev.Crash(nil); err != nil {
			t.Fatal(err)
		}
		rec, _, err := Mount(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Check(); err != nil {
			t.Fatalf("seed %d, after the crash: %v", seed, err)
		}
	}
}

// TestWriteIntoFragmentedSpaceRestartsItsHandle: one 15 MB WriteAt on a
// 16-block journal whose free space is single blocks between another
// file's, so that it makes one extent a block, some 3 900 records on 12
// leaves — more than one transaction of that journal holds. The write
// restarts its handle before an allocation that does not fit, as ext4
// does, and goes through whole: it used to be refused with ErrNoSpace by
// a credit counted for every block up front. Its data read back, the
// image passes Check, and an fsync'd copy survives a crash.
func TestWriteIntoFragmentedSpaceRestartsItsHandle(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{JournalBlocks: 16, MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := vfs.Create(fs, "/a")
	b, _ := vfs.Create(fs, "/b")
	blk := make([]byte, sim.BlockSize)
	for err == nil {
		if _, err = a.Write(blk); err == nil {
			_, err = b.Write(blk)
		}
	}
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatal(err)
	}
	b.Close()
	if err := fs.Unlink("/b"); err != nil {
		t.Fatal(err)
	}
	fs.CommitMeta()
	f, _ := vfs.Create(fs, "/f")
	data := make([]byte, 3900*sim.BlockSize)
	for i := range data {
		data[i] = byte(i/sim.BlockSize) ^ byte(i)
	}
	commits := fs.Stats().Commits
	if n, err := f.WriteAt(data, 0); n != len(data) || err != nil {
		t.Fatalf("WriteAt = %d, %v; want %d", n, err, len(data))
	}
	if got := len(f.(*File).in.extents); got < 3800 {
		t.Fatalf("/f has %d extents: the free space was not fragmented", got)
	}
	if fs.Stats().Commits == commits {
		t.Fatal("no commit during the write: it never restarted its handle")
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Check(); err != nil {
		t.Fatal(err)
	}
	g, err := rec.OpenFile("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, _ := g.ReadAt(got, 0); n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("/f after the crash: %d bytes read, equal %v", n, bytes.Equal(got, data))
	}
}

// fullDir formats a 16 MB device, fills it with one preallocated file,
// /big, and grows directory /d into the last free block: a create in /d
// then needs a directory block, and the device has none.
func fullDir(t testing.TB) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 16 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs, err := Mkfs(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	big, _ := vfs.Create(fs, "/big")
	if err := big.(*File).Preallocate(fs.FreeBlocks()-1, 0); err != nil {
		t.Fatal(err)
	}
	big.Close()
	for i := 0; ; i++ {
		f, err := vfs.Create(fs, fmt.Sprintf("/d/f%04d", i))
		if errors.Is(err, vfs.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if fs.FreeBlocks() != 0 {
		t.Fatalf("%d blocks left free", fs.FreeBlocks())
	}
	fs.CommitMeta()
	return dev, fs
}

// TestFailedCreateGivesItsInodeBack: a create or mkdir whose directory
// cannot grow fails with ENOSPC and leaves no inode behind. It used to
// keep the inode it had allocated and written, named by no entry, through
// a commit and a remount: five failed creates took five numbers for good.
func TestFailedCreateGivesItsInodeBack(t *testing.T) {
	dev, fs := fullDir(t)
	free := fs.iBmp.FreeCount()
	for i := range 5 {
		var err error
		if i%2 == 0 {
			_, err = vfs.Create(fs, fmt.Sprintf("/d/x%d", i))
		} else {
			err = fs.Mkdir(fmt.Sprintf("/d/x%d", i), 0o755)
		}
		if !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatalf("create %d in a full directory: %v, want ErrNoSpace", i, err)
		}
	}
	if got := fs.iBmp.FreeCount(); got != free {
		t.Fatalf("five failed creates took free inodes %d -> %d", free, got)
	}
	fs.CommitMeta()
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.iBmp.FreeCount(); got != free {
		t.Fatalf("after a remount, free inodes %d -> %d", free, got)
	}
}

// TestCreateCommitsWhatAnUnlinkFreed: on a device full to its last block,
// with a directory that has no room for one more entry, an unlink frees
// every block of a large file inside the running transaction, and the
// next create in that directory needs one of them for a new directory
// block. The create commits the frees first, as jbd2 commits when an
// allocation has to wait for frees, and goes through; it used to fail
// with ENOSPC. Crashed at every event of the create and the commit after
// it, each of the four ways, the remounted image passes Check and holds
// the new file whole or not at all.
func TestCreateCommitsWhatAnUnlinkFreed(t *testing.T) {
	unlinkAndCreate := func(fs *FS) error {
		if err := fs.Unlink("/big"); err != nil {
			return err
		}
		f, err := vfs.Create(fs, "/d/next")
		if err != nil {
			return err
		}
		fs.CommitMeta()
		return f.Close()
	}
	rec, fs := fullDir(t)
	rec.SetTracing(true)
	if err := unlinkAndCreate(fs); err != nil {
		t.Fatalf("a create after the unlink: %v", err)
	}
	points := 0
	for p := range pmem.CrashPoints(rec.Trace(), 2) {
		dev, fs := fullDir(t)
		p.Arm(dev)
		if err := unlinkAndCreate(fs); err != nil {
			t.Fatal(err)
		}
		if !dev.CrashFired() {
			t.Fatalf("%v never fired", p)
		}
		p.Crash(dev)
		got, _, err := Mount(dev, Config{})
		if err != nil {
			t.Fatalf("crash at %v: %v", p, err)
		}
		if _, err := got.Check(); err != nil {
			t.Fatalf("crash at %v: %v", p, err)
		}
		info, err := got.Stat("/d/next")
		switch {
		case errors.Is(err, vfs.ErrNotExist):
		case err != nil:
			t.Fatalf("crash at %v: %v", p, err)
		case info.IsDir || info.Size != 0 || info.Nlink != 1:
			t.Fatalf("crash at %v: /d/next recovered as %+v", p, info)
		}
		points++
	}
	t.Logf("%d crash points", points)
}
