package ext4dax

import (
	"errors"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestRecreateReproducesInodeNumbers: recovery's create takes the inode
// number it is told — whatever the allocator would have chosen — refuses a
// number or a name that is taken, and is journaled like any create.
func TestRecreateReproducesInodeNumbers(t *testing.T) {
	dev, fs := newFS(t)
	f, err := vfs.Create(fs, "/first")
	if err != nil {
		t.Fatal(err)
	}
	taken := f.(*File).Ino()
	if !f.(*File).Created() {
		t.Error("a creating open does not say so")
	}
	f.Close()
	if g, err := fs.OpenFile("/first", vfs.O_CREATE|vfs.O_RDWR, 0o644); err != nil || g.(*File).Created() {
		t.Errorf("reopening an existing file with O_CREATE: Created() = true or %v", err)
	}
	dirIno, err := fs.MkdirIno(nil, "/made", 0o755)
	if info, serr := fs.Stat("/made"); err != nil || serr != nil || info.Ino != dirIno || !info.IsDir {
		t.Fatalf("MkdirIno = %d, %v; stat %+v, %v", dirIno, err, info, serr)
	}

	const far = 300 // nowhere near the allocator's cursor
	if err := fs.Recreate(nil, "/d", far, true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Recreate(nil, "/d/f", far+7, false); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]uint64{"/d": far, "/d/f": far + 7} {
		if info, err := fs.Stat(path); err != nil || info.Ino != want || info.IsDir != (path == "/d") {
			t.Errorf("%s: %+v, %v; want inode %d", path, info, err, want)
		}
	}
	if err := fs.Recreate(nil, "/g", taken, false); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("Recreate under a live inode number: %v", err)
	}
	if _, err := fs.Stat("/g"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("the refused Recreate left a name behind: %v", err)
	}
	if err := fs.Recreate(nil, "/d/f", far+9, false); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("Recreate over an existing name: %v", err)
	}
	if err := fs.Recreate(nil, "/h", 1<<40, false); err == nil {
		t.Error("Recreate beyond the inode table succeeded")
	}

	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := fs2.Stat("/d/f"); err != nil || info.Ino != far+7 {
		t.Errorf("after crash and mount /d/f: %+v, %v", info, err)
	}
	// The numbers are really allocated: the allocator steps over them.
	for i := 0; i < 400; i++ {
		f, err := vfs.Create(fs2, "/d/x")
		if err != nil {
			t.Fatal(err)
		}
		if ino := f.(*File).Ino(); ino == far || ino == far+7 {
			t.Fatalf("inode %d handed out twice", ino)
		}
		f.Close()
		if err := fs2.Unlink("/d/x"); err != nil {
			t.Fatal(err)
		}
		fs2.CommitMeta()
	}
}

// TestRenameReplacingReportsBothInodes: U-Split re-keys its caches for the
// inode a rename moved, and retires them for the one it replaced, without
// having stat'ed either first.
func TestRenameReplacingReportsBothInodes(t *testing.T) {
	_, fs := newFS(t)
	vfs.WriteFile(fs, "/src", []byte("payload"))
	vfs.WriteFile(fs, "/dst", []byte("old"))
	src, _ := fs.Stat("/src")
	dst, _ := fs.Stat("/dst")
	file := func(name string) vfs.DirEntry { return vfs.DirEntry{Name: name, Ino: src.Ino} }
	if moved, replaced, err := fs.RenameReplacing(nil, "/src", "/fresh"); err != nil || moved != file("fresh") || replaced != 0 {
		t.Fatalf("rename to a free name: moved %+v, replaced %d, %v", moved, replaced, err)
	}
	if moved, replaced, err := fs.RenameReplacing(nil, "/fresh", "/dst"); err != nil || moved != file("dst") || replaced != dst.Ino {
		t.Fatalf("rename over /dst: moved %+v, replaced %d, %v; want %d", moved, replaced, err, dst.Ino)
	}
	// Onto itself: nothing replaced, nothing lost.
	if moved, replaced, err := fs.RenameReplacing(nil, "/dst", "/dst"); err != nil || moved != file("dst") || replaced != 0 {
		t.Fatalf("rename onto itself: moved %+v, replaced %d, %v", moved, replaced, err)
	}
	if got, err := vfs.ReadFile(fs, "/dst"); err != nil || string(got) != "payload" {
		t.Fatalf("/dst = %q, %v", got, err)
	}
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	d, _ := fs.Stat("/d")
	if moved, _, err := fs.RenameReplacing(nil, "/d", "/e"); err != nil || moved != (vfs.DirEntry{Name: "e", Ino: d.Ino, IsDir: true}) {
		t.Fatalf("rename of a directory: moved %+v, %v", moved, err)
	}
}

// TestSetUserWatermarkWritesOnlyTheField: the watermark is eight bytes
// noted into the running transaction, at no write-back's cost; it commits
// with that transaction and leaves the rest of the inode record alone.
func TestSetUserWatermarkWritesOnlyTheField(t *testing.T) {
	dev, fs := newFS(t)
	vfs.WriteFile(fs, "/f", make([]byte, 3*sim.BlockSize))
	f, err := fs.OpenFile("/f", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	kf := f.(*File)
	clk := dev.Clock()
	before, cpu := clk.Now(), clk.Snapshot().ByCat[sim.CatCPU]
	kf.SetUserWatermark(nil, 77)
	if got := clk.Snapshot().ByCat[sim.CatCPU] - cpu; got != 0 {
		t.Errorf("the watermark cost %d ns of CPU: an inode write-back (%d)?", got, sim.Ext4ExtentUpdate.Fixed)
	}
	if got := clk.Now() - before; got > 20 {
		t.Errorf("the watermark cost %d sim-ns in all, want a cached 8-byte store", got)
	}
	// Uncommitted, it is lost with the transaction; committed, it is there
	// and the file is what it was.
	for _, commit := range []bool{false, true} {
		kf.SetUserWatermark(nil, 99)
		if commit {
			fs.CommitMeta()
		}
		if err := dev.Crash(sim.NewRNG(4)); err != nil {
			t.Fatal(err)
		}
		fs, _, err = Mount(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := fs.OpenFile("/f", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		kf = g.(*File)
		want := uint64(0)
		if commit {
			want = 99
		}
		if info, _ := kf.Stat(); kf.UserWatermark() != want || info.Size != 3*sim.BlockSize || info.Blocks != 3 {
			t.Errorf("commit=%v: watermark %d (want %d), inode %+v", commit, kf.UserWatermark(), want, info)
		}
	}
}

// TestStampCommitsWithItsBatch: a journal stamp set under a batch handle
// joins the transaction that holds what else the handle covered — lost
// with it, durable with it, whatever the crash tears. A stamp set in a
// transaction that noted nothing still commits, without a block image;
// MaxUserWatermark covers the stamps too.
func TestStampCommitsWithItsBatch(t *testing.T) {
	dev, fs := newFS(t)
	for round, commit := range []bool{false, true, true} {
		stamp := uint64(100 + round)
		b := fs.BeginBatch()
		if round < 2 {
			if err := fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
		}
		b.SetStamp(2, stamp)
		b.End()
		if fs.Stamp(2) != stamp || fs.MaxUserWatermark() != stamp {
			t.Fatalf("round %d: stamp reads %d, max %d, want %d", round, fs.Stamp(2), fs.MaxUserWatermark(), stamp)
		}
		logged := fs.JournalStats().BlocksLogged
		if commit {
			fs.CommitMeta()
			if got := fs.JournalStats().BlocksLogged - logged; (got == 0) != (round == 2) {
				t.Errorf("round %d: the commit logged %d images; a stamp alone is a superblock write", round, got)
			}
		}
		if err := dev.Crash(sim.NewRNG(uint64(round))); err != nil {
			t.Fatal(err)
		}
		var err error
		if fs, _, err = Mount(dev, Config{}); err != nil {
			t.Fatal(err)
		}
		_, statErr := fs.Stat("/d")
		if want := map[bool]uint64{true: stamp}[commit]; fs.Stamp(2) != want || (statErr == nil) != commit {
			t.Errorf("round %d, commit=%v: stamp %d (want %d), /d: %v", round, commit, fs.Stamp(2), want, statErr)
		}
		if _, err := fs.Check(); err != nil {
			t.Error(err)
		}
	}
}
