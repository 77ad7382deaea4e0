package splitfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func newEnv(t testing.TB, mode Mode) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(),
		TrackPersistence: true, TrackWear: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, Config{
		Mode:             mode,
		StagingFiles:     4,
		StagingFileBytes: 2 << 20,
		OpLogBytes:       1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

func allModes() []Mode { return []Mode{POSIX, Sync, Strict} }

func TestBasicReadWriteAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			f, err := vfs.Create(fs, "/hello")
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("split architecture")
			if n, err := f.Write(data); err != nil || n != len(data) {
				t.Fatalf("Write = %d, %v", n, err)
			}
			// Read-your-write before any fsync (served from staging).
			got := make([]byte, len(data))
			if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
				t.Fatalf("ReadAt = %d, %v", n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %q, want %q", got, data)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen and read through the mmap path.
			got2, err := vfs.ReadFile(fs, "/hello")
			if err != nil || !bytes.Equal(got2, data) {
				t.Fatalf("after reopen: %q, %v", got2, err)
			}
		})
	}
}

func TestAppendsAreStagedUntilFsync(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/staged")
	payload := bytes.Repeat([]byte("s"), 2*sim.BlockSize)
	f.Write(payload)
	// The kernel file must still be empty: data lives in a staging file.
	kinfo, err := fs.kfs.Stat("/staged")
	if err != nil {
		t.Fatal(err)
	}
	if kinfo.Size != 0 {
		t.Fatalf("kernel size before fsync = %d, want 0", kinfo.Size)
	}
	// U-Split's view includes the append.
	info, _ := f.Stat()
	if info.Size != int64(len(payload)) {
		t.Fatalf("usplit size = %d", info.Size)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	kinfo, _ = fs.kfs.Stat("/staged")
	if kinfo.Size != int64(len(payload)) {
		t.Fatalf("kernel size after fsync = %d", kinfo.Size)
	}
	f.Close()
}

func TestRelinkAvoidsDataCopy(t *testing.T) {
	dev, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/big")
	payload := bytes.Repeat([]byte("x"), 16*sim.BlockSize)
	f.Write(payload)
	written := dev.Stats().BytesWrittenNT
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// fsync must move 16 blocks by relink: journal traffic only, far less
	// than the 64 KB of data.
	growth := dev.Stats().BytesWrittenNT - written
	if growth > 8*sim.BlockSize {
		t.Fatalf("fsync wrote %d bytes; relink should not copy data", growth)
	}
	st := fs.Stats()
	if st.RelinkBlocks != 16 {
		t.Fatalf("RelinkBlocks = %d, want 16", st.RelinkBlocks)
	}
	if st.CopiedBytes != 0 {
		t.Fatalf("CopiedBytes = %d, want 0 for aligned appends", st.CopiedBytes)
	}
	f.Close()
}

func TestUnalignedAppendCopiesPartialOnly(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/unaligned")
	f.Write(make([]byte, 100)) // sub-block append
	f.Sync()
	f.Write(make([]byte, sim.BlockSize)) // continues at offset 100
	f.Sync()
	st := fs.Stats()
	// The first fsync moves the file's only block whole, slack and all;
	// the second copies the head [100,4096) into that block and moves the
	// new last block [4096,4196) whole. Only a partial block the file
	// already owns is ever copied into.
	if st.CopiedBytes != sim.BlockSize-100 {
		t.Fatalf("CopiedBytes = %d, want %d", st.CopiedBytes, sim.BlockSize-100)
	}
	if st.RelinkBlocks != 2 {
		t.Fatalf("RelinkBlocks = %d, want 2", st.RelinkBlocks)
	}
	got, _ := vfs.ReadFile(fs, "/unaligned")
	if len(got) != 100+sim.BlockSize {
		t.Fatalf("size = %d", len(got))
	}
	f.Close()
}

func TestOverwriteInUserSpaceNoTrap(t *testing.T) {
	for _, mode := range []Mode{POSIX, Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			f, _ := vfs.Create(fs, "/ow")
			f.Write(make([]byte, 4*sim.BlockSize))
			f.Sync()
			// Prime the mapping with one read.
			buf := make([]byte, 8)
			f.ReadAt(buf, 0)
			traps := fs.kfs.Stats().Traps
			f.WriteAt([]byte("userland"), 100)
			f.ReadAt(buf, 100)
			if got := fs.kfs.Stats().Traps; got != traps {
				t.Fatalf("data ops trapped into the kernel (%d new traps)", got-traps)
			}
			if string(buf) != "userland" {
				t.Fatalf("read back %q", buf)
			}
			f.Close()
		})
	}
}

func TestSyncModeOverwriteDurableWithoutFsync(t *testing.T) {
	dev, fs := newEnv(t, Sync)
	f, _ := vfs.Create(fs, "/sow")
	f.Write(make([]byte, sim.BlockSize))
	f.Sync()
	f.WriteAt([]byte("SYNCED"), 10)
	// No fsync. Crash.
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(kfs2, "/sow")
	if string(got[10:16]) != "SYNCED" {
		t.Fatalf("sync-mode overwrite lost: %q", got[10:16])
	}
}

func TestPosixOverwriteNotDurableUntilFsync(t *testing.T) {
	dev, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/pow")
	f.Write(make([]byte, sim.BlockSize))
	f.Sync()
	f.WriteAt([]byte("MAYBE"), 0)
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(kfs2, "/pow")
	// POSIX mode gives no durability promise for unsynced overwrites:
	// either old or new data is acceptable, but the file must be intact.
	if len(got) != sim.BlockSize {
		t.Fatalf("file damaged: %d bytes", len(got))
	}
}

func TestStrictAppendDurableWithoutFsync(t *testing.T) {
	// Strict mode: operations are synchronous AND atomic. A logged append
	// must survive a crash even without fsync, via op-log replay.
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/strict")
	payload := []byte("strict-append-no-fsync")
	f.Write(payload)
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, report, err := RecoverFS(kfs2, Config{Mode: Strict,
		StagingFiles: 4, StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed == 0 {
		t.Fatalf("nothing replayed: %+v", report)
	}
	got, err := vfs.ReadFile(fs2, "/strict")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after recovery = %q, %v", got, err)
	}
}

func TestStrictRecoverySkipsRelinkedEntries(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/done")
	f.Write(bytes.Repeat([]byte("d"), sim.BlockSize))
	f.Sync()                   // relinked; log entry remains but staging range is punched
	f.Write([]byte("pending")) // logged, not relinked
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, report, err := RecoverFS(kfs2, Config{Mode: Strict,
		StagingFiles: 4, StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped == 0 || report.Replayed == 0 {
		t.Fatalf("report = %+v; want both skipped and replayed entries", report)
	}
	got, err := vfs.ReadFile(fs2, "/done")
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte("d"), sim.BlockSize), []byte("pending")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("content after recovery: %d bytes, tail %q", len(got), got[len(got)-7:])
	}
}

func TestStrictOverwriteAtomicAcrossCrash(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	old := bytes.Repeat([]byte("O"), sim.BlockSize)
	f, _ := vfs.Create(fs, "/atomic")
	f.Write(old)
	f.Sync()
	// Staged overwrite, torn crash before fsync.
	f.WriteAt(bytes.Repeat([]byte("N"), sim.BlockSize), 0)
	if err := dev.Crash(sim.NewRNG(11)); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, _, err := RecoverFS(kfs2, Config{Mode: Strict,
		StagingFiles: 4, StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/atomic")
	if err != nil {
		t.Fatal(err)
	}
	allO := bytes.Equal(got, old)
	allN := bytes.Equal(got, bytes.Repeat([]byte("N"), sim.BlockSize))
	if !allO && !allN {
		t.Fatalf("strict overwrite torn: %q...", got[:8])
	}
}

func TestTable1AppendAnchors(t *testing.T) {
	// Paper Table 1: SplitFS-POSIX 4 KB append 1160 ns; strict 1251 ns.
	for _, tc := range []struct {
		mode   Mode
		lo, hi int64
	}{
		{POSIX, 900, 1450},
		{Strict, 1000, 1600},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			dev, fs := newEnv(t, tc.mode)
			f, _ := vfs.Create(fs, "/bench")
			f.Write(make([]byte, sim.BlockSize)) // warm staging chunk
			clk := dev.Clock()
			start := clk.Now()
			const n = 32
			for i := 0; i < n; i++ {
				f.Write(make([]byte, sim.BlockSize))
			}
			per := (clk.Now() - start) / n
			if per < tc.lo || per > tc.hi {
				t.Fatalf("append = %d ns/op, want [%d,%d]", per, tc.lo, tc.hi)
			}
		})
	}
}

func TestStrictSingleFencePerAppend(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/fence")
	f.Write(make([]byte, sim.BlockSize))
	before := dev.Stats().Fences
	f.Write(make([]byte, sim.BlockSize))
	if got := dev.Stats().Fences - before; got != 1 {
		t.Fatalf("strict append used %d fences, want 1 (§3.3)", got)
	}
}

func TestTable6FsyncCost(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/f6")
	clk := dev.Clock()
	f.Write(make([]byte, 4*sim.BlockSize))
	start := clk.Now()
	f.Sync()
	fsyncNs := clk.Now() - start
	// Paper: 6.85 µs strict (vs 28.98 µs on ext4 DAX). Our relink carries
	// somewhat more extent bookkeeping; the shape constraint is that it
	// stays far below ext4's fsync (see EXPERIMENTS.md).
	if fsyncNs < 4000 || fsyncNs > 14000 {
		t.Fatalf("fsync = %d ns, want ~6850-13000", fsyncNs)
	}
	f.Close()
}

func TestUnlinkDropsMappingsAndCosts(t *testing.T) {
	dev, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/u")
	f.Write(make([]byte, 4*sim.BlockSize))
	f.Sync()
	buf := make([]byte, 8)
	f.ReadAt(buf, 0) // create a mapping
	f.Close()
	clk := dev.Clock()
	start := clk.Now()
	if err := fs.Unlink("/u"); err != nil {
		t.Fatal(err)
	}
	unlinkNs := clk.Now() - start
	// Paper Table 6: 13.56-14.60 µs for SplitFS vs 8.60 for ext4 DAX.
	if unlinkNs < 10000 || unlinkNs > 20000 {
		t.Fatalf("unlink = %d ns, want ~14000", unlinkNs)
	}
	if _, err := fs.Stat("/u"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("file still visible")
	}
}

func TestMmapCacheReuse(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/mc")
	f.Write(make([]byte, 8*sim.BlockSize))
	f.Sync()
	buf := make([]byte, 64)
	f.ReadAt(buf, 0)
	misses := fs.Stats().MmapMisses
	for i := 0; i < 10; i++ {
		f.ReadAt(buf, int64(i)*sim.BlockSize)
	}
	if fs.Stats().MmapMisses != misses {
		t.Fatal("reads within a cached region re-mmapped")
	}
	f.Close()
}

func TestOpLogCheckpointOnFull(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, _ := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	fs, err := New(kfs, Config{
		Mode: Strict, StagingFiles: 4, StagingFileBytes: 4 << 20,
		OpLogBytes: 64 << 10, // tiny log: ~1000 entries
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := vfs.Create(fs, "/spam")
	for i := 0; i < 1500; i++ {
		if _, err := f.Write(make([]byte, 64)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fs.Stats().Checkpoints == 0 {
		t.Fatal("op log never checkpointed")
	}
	info, _ := f.Stat()
	if info.Size != 1500*64 {
		t.Fatalf("size = %d", info.Size)
	}
	// Data correct across the checkpoint boundary.
	got := make([]byte, 1500*64)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestDupSharesOffset(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/dup")
	f.Write([]byte("0123456789"))
	f.Sync()
	tab := vfs.NewFDTable()
	fd := tab.Insert(f)
	dupFd, err := tab.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := tab.Get(fd)
	g2, _ := tab.Get(dupFd)
	g1.Seek(2, vfs.SeekSet)
	buf := make([]byte, 3)
	g2.Read(buf) // must observe the seek from the other descriptor
	if string(buf) != "234" {
		t.Fatalf("dup offset not shared: read %q", buf)
	}
	tab.Close(fd)
	tab.Close(dupFd)
}

func TestSharedOfileAcrossOpens(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f1, _ := vfs.Create(fs, "/share")
	f1.Write([]byte("from-f1"))
	// Second open of the same file sees staged data immediately.
	f2, err := fs.OpenFile("/share", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "from-f1" {
		t.Fatalf("second handle read %q", buf)
	}
	f1.Close()
	// Closing one handle must not relink/close the shared description.
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatalf("after f1 close: %v", err)
	}
	f2.Close()
}

func TestConcurrentModesShareKSplit(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, _ := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	mk := func(m Mode) *FS {
		fs, err := New(kfs, Config{Mode: m, StagingFiles: 2, StagingFileBytes: 1 << 20,
			OpLogBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	posix, strict := mk(POSIX), mk(Strict)
	if err := vfs.WriteFile(posix, "/p", []byte("posix-data")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(strict, "/s", []byte("strict-data")); err != nil {
		t.Fatal(err)
	}
	// Cross-visibility through the shared kernel FS.
	got, err := vfs.ReadFile(strict, "/p")
	if err != nil || string(got) != "posix-data" {
		t.Fatalf("strict instance reads posix file: %q, %v", got, err)
	}
	got, err = vfs.ReadFile(posix, "/s")
	if err != nil || string(got) != "strict-data" {
		t.Fatalf("posix instance reads strict file: %q, %v", got, err)
	}
}

func TestReadEOFAndHoles(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/holes")
	f.WriteAt([]byte("tail"), 3*sim.BlockSize)
	f.Sync()
	buf := make([]byte, 16)
	n, err := f.ReadAt(buf, sim.BlockSize)
	if err != nil || n != 16 {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatal("hole not zero")
	}
	if _, err := f.ReadAt(buf, 3*sim.BlockSize+4); err != io.EOF {
		t.Fatalf("EOF read = %v", err)
	}
	f.Close()
}

func TestRenameWithStagedData(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/old")
	f.Write([]byte("moved-data"))
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/new")
	if err != nil || string(got) != "moved-data" {
		t.Fatalf("after rename: %q, %v", got, err)
	}
	f.Close()
}

func TestTruncateWithStagedData(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, _ := vfs.Create(fs, "/trunc")
	f.Write(bytes.Repeat([]byte("t"), 2*sim.BlockSize))
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size != 10 {
		t.Fatalf("size = %d", info.Size)
	}
	got, _ := vfs.ReadFile(fs, "/trunc")
	if !bytes.Equal(got, bytes.Repeat([]byte("t"), 10)) {
		t.Fatalf("content = %q", got)
	}
	f.Close()
}

func TestReadDirHidesInternals(t *testing.T) {
	_, fs := newEnv(t, Strict)
	vfs.WriteFile(fs, "/visible", []byte("v"))
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name != "visible" {
			t.Fatalf("internal entry leaked: %q", e.Name)
		}
	}
}

func TestMemoryUsageBounded(t *testing.T) {
	_, fs := newEnv(t, Strict)
	for i := 0; i < 20; i++ {
		vfs.WriteFile(fs, "/m"+string(rune('a'+i)), make([]byte, sim.BlockSize))
	}
	// §5.10: SplitFS uses at most ~100 MB + 40 MB for its metadata; at
	// our scale it must stay tiny.
	if mb := fs.MemoryUsage(); mb > 1<<20 {
		t.Fatalf("memory usage = %d bytes", mb)
	}
}
