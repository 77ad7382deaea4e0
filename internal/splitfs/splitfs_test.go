package splitfs

import (
	"bytes"
	"errors"
	"io"
	"slices"
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

// TestStrictRecoverySkipsRelinkedEntries: a relinked write's entry that
// stays on the log is skipped by recovery, beside one that is replayed.
// The entry stays because a second open file holds staged data when /done
// is fsynced: the log is not covered, so it does not rewind.
func TestStrictRecoverySkipsRelinkedEntries(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/done")
	g, _ := vfs.Create(fs, "/other")
	g.Write([]byte("staged"))
	f.Write(bytes.Repeat([]byte("d"), sim.BlockSize))
	f.Sync()                   // relinked; log entry remains but staging range is punched
	f.Write([]byte("pending")) // logged, not relinked
	if got := fs.Stats().Rewinds; got != 0 {
		t.Fatalf("the log rewound %d times while /other held staged data", got)
	}
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
	if got, err := vfs.ReadFile(fs2, "/other"); err != nil || string(got) != "staged" {
		t.Fatalf("/other after recovery = %q, %v; want %q", got, err, "staged")
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

// appendNs is the simulated cost of a 4 KB append in the given mode, over
// 32 appends to a file whose staging chunk is already reserved.
func appendNs(t *testing.T, mode Mode) int64 {
	t.Helper()
	dev, fs := newEnv(t, mode)
	f, _ := vfs.Create(fs, "/bench")
	f.Write(make([]byte, sim.BlockSize)) // warm staging chunk
	clk := dev.Clock()
	start := clk.Now()
	const n = 32
	for i := 0; i < n; i++ {
		f.Write(make([]byte, sim.BlockSize))
	}
	return (clk.Now() - start) / n
}

func TestTable1AppendAnchors(t *testing.T) {
	// Paper Table 1: SplitFS-POSIX 4 KB append 1160 ns; strict 1251 ns.
	// Strict measured 1 221 with its data fenced ahead of its entry, and
	// 1 318 with a checksum over the data instead.
	for _, tc := range []struct {
		mode   Mode
		lo, hi int64
	}{
		{POSIX, 900, 1450},
		{Strict, 1150, 1260},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			if per := appendNs(t, tc.mode); per < tc.lo || per > tc.hi {
				t.Fatalf("append = %d ns/op, want [%d,%d]", per, tc.lo, tc.hi)
			}
		})
	}
}

// TestStrictAppendOverPosixBounded: what strict mode adds to a 4 KB append
// is an op-log entry and two fences, 146 ns (the paper's Table 1: 91 ns).
// A checksum over the staged bytes made it 243.
func TestStrictAppendOverPosixBounded(t *testing.T) {
	strict, posix := appendNs(t, Strict), appendNs(t, POSIX)
	t.Logf("4 KB append: strict %d ns, POSIX %d ns", strict, posix)
	if gap := strict - posix; gap > 160 {
		t.Fatalf("strict append costs %d ns over POSIX, want at most 160", gap)
	}
}

// TestStrictAppendFencesDataFirst pins the order a strict append persists
// in: the staged data, a fence, the log entry, a fence. The first fence is
// what lets recovery trust an entry without a checksum over its data.
func TestStrictAppendFencesDataFirst(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	f, _ := vfs.Create(fs, "/fence")
	f.Write(make([]byte, sim.BlockSize))
	before := dev.Stats().Fences
	dev.SetTracing(true)
	f.Write(make([]byte, sim.BlockSize))
	trace := dev.Trace()
	dev.SetTracing(false)
	if got := dev.Stats().Fences - before; got != 2 {
		t.Fatalf("strict append used %d fences, want 2", got)
	}
	type step struct {
		kind pmem.EventKind
		cat  sim.Category
	}
	want := []step{{pmem.EvStoreNT, sim.CatPMData}, {pmem.EvFence, sim.CatFence},
		{pmem.EvStoreNT, sim.CatOpLog}, {pmem.EvFence, sim.CatFence}}
	var got []step
	for _, ev := range trace {
		got = append(got, step{ev.Kind, ev.Cat})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("strict append persisted as %v, want %v (data, fence, entry, fence)", got, want)
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
	// The shape constraint here is that a strict fsync stays far below
	// ext4's; the paper's Table 6 values and the band ours must stay in
	// are rows of the claims table (internal/harness/paper.go).
	if fsyncNs < 4000 || fsyncNs > 14000 {
		t.Fatalf("fsync = %d ns, want ~6850-13000", fsyncNs)
	}
	f.Close()
}

// cachedFile makes path a synced file of size bytes whose window at each
// of offs is cached, closes it and reports its inode.
func cachedFile(t *testing.T, fs *FS, path string, size int64, offs ...int64) uint64 {
	t.Helper()
	f, err := vfs.Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{1}, int(size))); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		if _, err := f.ReadAt(make([]byte, 8), off); err != nil {
			t.Fatal(err)
		}
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return info.Ino
}

// TestUnlinkDropsMappingsAndCosts prices U-Split's unlink exactly: its
// bookkeeping, one crossing into K-Split's unlink — priced on a twin file
// system unlinking the same file directly — one munmap per cached window
// and, in sync and strict mode, one redo record behind one fence. Nothing
// is stat'ed first (Table 6: 14.60 µs strict vs 8.60 µs on ext4 DAX, the
// gap §3.5 puts down to the munmaps).
func TestUnlinkDropsMappingsAndCosts(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			dev, fs := newEnv(t, mode)
			twinDev, twin := newEnv(t, mode)
			size := fs.cfg.MmapBytes + 4*sim.BlockSize
			ino := cachedFile(t, fs, "/u", size, 0, fs.cfg.MmapBytes)
			cachedFile(t, twin, "/u", size, 0, fs.cfg.MmapBytes)
			windows := int64(fs.mmaps.count(ino))
			if windows != 2 {
				t.Fatalf("%d cached windows, want 2", windows)
			}
			twinStart := twinDev.Clock().Now()
			if _, err := twin.kfs.UnlinkIno(nil, "/u"); err != nil {
				t.Fatal(err)
			}
			kSplit := twinDev.Clock().Now() - twinStart

			clk := dev.Clock()
			before, traps, entries := clk.Snapshot(), fs.kfs.Stats().Traps, fs.Stats().LogEntries
			fences := dev.Stats().Fences
			if err := fs.Unlink("/u"); err != nil {
				t.Fatal(err)
			}
			got := clk.Snapshot().Sub(before)
			want := sim.USplitBookkeep.Fixed + kSplit + windows*sim.Munmap.Fixed
			wantEntries, wantFences := int64(0), int64(0)
			if mode != POSIX {
				// The record: the tail bump and the checksum, its stores
				// (the op log's whole category) and its fence.
				want += sim.OpLogCAS.Fixed + sim.LogChecksum.Fixed + got.ByCat[sim.CatOpLog] + sim.PMFence.Fixed
				wantEntries, wantFences = 1, 1
			}
			if got.Total != want {
				t.Fatalf("unlink = %d ns (%s), want %d: K-Split %d, %d windows", got.Total, got, want, kSplit, windows)
			}
			if n := fs.kfs.Stats().Traps - traps; n != 1 {
				t.Fatalf("unlink crossed into K-Split %d times, want 1", n)
			}
			if trapNs := got.ByCat[sim.CatKernelTrap]; trapNs != sim.KernelTrap.Fixed+windows*sim.Munmap.Fixed {
				t.Fatalf("kernel-trap time %d ns, want one trap and %d munmaps", trapNs, windows)
			}
			if n := fs.Stats().LogEntries - entries; n != wantEntries {
				t.Fatalf("unlink appended %d log entries, want %d", n, wantEntries)
			}
			if n := dev.Stats().Fences - fences; n != wantFences {
				t.Fatalf("unlink fenced %d times, want %d", n, wantFences)
			}
			if n := fs.mmaps.count(ino); n != 0 {
				t.Fatalf("%d windows still cached", n)
			}
			if _, err := fs.Stat("/u"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatal("file still visible")
			}
		})
	}
}

// TestNamespaceCallsCrossOnce pins U-Split's crossings into K-Split per
// namespace call: each is one trap, like its ext4 DAX system call. Only a
// first-time open crosses twice, for the attribute stat §3.5 caches.
func TestNamespaceCallsCrossOnce(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			for _, p := range []string{"/a", "/b", "/c"} {
				cachedFile(t, fs, p, 4*sim.BlockSize, 0)
			}
			var f vfs.File
			calls := []struct {
				name  string
				traps int64
				call  func() error
			}{
				{"mkdir", 1, func() error { return fs.Mkdir("/d", 0o755) }},
				{"rmdir", 1, func() error { return fs.Rmdir("/d") }},
				{"rename", 1, func() error { return fs.Rename("/a", "/a2") }},
				{"rename replacing", 1, func() error { return fs.Rename("/a2", "/b") }},
				{"unlink", 1, func() error { return fs.Unlink("/b") }},
				{"first open", 2, func() (err error) { f, err = fs.OpenFile("/e", vfs.O_RDWR|vfs.O_CREATE, 0o644); return }},
				{"truncate", 1, func() error { return f.Truncate(sim.BlockSize) }},
				{"close", 1, func() error { return f.Close() }},
				{"reopen", 1, func() (err error) { f, err = fs.OpenFile("/c", vfs.O_RDWR, 0); return }},
			}
			for _, c := range calls {
				traps := fs.kfs.Stats().Traps
				if err := c.call(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if n := fs.kfs.Stats().Traps - traps; n != c.traps {
					t.Errorf("%s crossed into K-Split %d times, want %d", c.name, n, c.traps)
				}
			}
			f.Close()
		})
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
