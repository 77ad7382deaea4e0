package ext4dax

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func newFS(t testing.TB) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{
		Size: 64 << 20, Clock: sim.NewClock(),
		TrackPersistence: true, TrackWear: true,
	})
	fs, err := Mkfs(dev, Config{JournalBlocks: 64, MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

func TestCreateWriteRead(t *testing.T) {
	_, fs := newFS(t)
	f, err := vfs.Create(fs, "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, persistent memory")
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.Blocks != 1 {
		t.Fatalf("info = %+v", info)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenFlags(t *testing.T) {
	_, fs := newFS(t)
	if _, err := vfs.Open(fs, "/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
	f, _ := vfs.Create(fs, "/f")
	f.Write([]byte("abcdef"))
	f.Close()
	if _, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0644); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("O_EXCL on existing = %v", err)
	}
	// O_TRUNC empties the file.
	f2, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_TRUNC, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := f2.Stat(); info.Size != 0 {
		t.Fatalf("O_TRUNC left size %d", info.Size)
	}
	f2.Close()
	// Writing a read-only handle fails.
	f3, _ := vfs.Open(fs, "/f")
	if _, err := f3.Write([]byte("x")); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("write on O_RDONLY = %v", err)
	}
	f3.Close()
}

func TestAppendMode(t *testing.T) {
	_, fs := newFS(t)
	f, _ := fs.OpenFile("/log", vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0644)
	f.Write([]byte("one"))
	f.Seek(0, vfs.SeekSet) // O_APPEND ignores the offset for writes
	f.Write([]byte("two"))
	f.Close()
	got, err := vfs.ReadFile(fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "onetwo" {
		t.Fatalf("content = %q, want onetwo", got)
	}
}

func TestSequentialAppends128MBPattern(t *testing.T) {
	// The Table 1 workload shape: repeated 4 KB appends. Scaled to 2 MB.
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/appends")
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 512; i++ {
		blk[0] = byte(i)
		if _, err := f.Write(blk); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size != 512*sim.BlockSize {
		t.Fatalf("size = %d", info.Size)
	}
	got := make([]byte, sim.BlockSize)
	for _, i := range []int{0, 100, 511} {
		f.ReadAt(got, int64(i)*sim.BlockSize)
		if got[0] != byte(i) {
			t.Fatalf("block %d corrupted: %d", i, got[0])
		}
	}
	f.Close()
}

func TestOverwriteInPlaceNoMetadata(t *testing.T) {
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/ow")
	f.Write(make([]byte, 4*sim.BlockSize))
	f.Sync()
	commitsBefore := fs.Stats().Commits
	// In-place overwrites must not generate journal transactions.
	f.WriteAt([]byte("overwrite"), sim.BlockSize)
	f.Sync()
	// One commit can come from the fsync itself flushing the (empty) tx;
	// the overwrite alone must not have noted metadata.
	if got := fs.Stats().Commits; got != commitsBefore {
		t.Fatalf("in-place overwrite committed metadata: %d -> %d", commitsBefore, got)
	}
	got := make([]byte, 9)
	f.ReadAt(got, sim.BlockSize)
	if string(got) != "overwrite" {
		t.Fatalf("read %q", got)
	}
	f.Close()
}

func TestSparseWriteAndHoles(t *testing.T) {
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/sparse")
	// Write one block at 1 MB, leaving a hole before it.
	f.WriteAt([]byte("tail"), 1<<20)
	info, _ := f.Stat()
	if info.Size != 1<<20+4 {
		t.Fatalf("size = %d", info.Size)
	}
	if info.Blocks != 1 {
		t.Fatalf("hole allocated blocks: %d", info.Blocks)
	}
	// The hole reads as zeros.
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("hole not zero: %v", buf)
	}
	// Fill the hole; both pieces intact.
	f.WriteAt([]byte("head"), 0)
	b4 := make([]byte, 4)
	f.ReadAt(b4, 0)
	if string(b4) != "head" {
		t.Fatalf("head = %q", b4)
	}
	f.ReadAt(b4, 1<<20)
	if string(b4) != "tail" {
		t.Fatalf("tail = %q", b4)
	}
	f.Close()
}

func TestReadEOF(t *testing.T) {
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/eof")
	f.Write([]byte("abc"))
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != nil {
		t.Fatalf("short read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, 3); err != io.EOF {
		t.Fatalf("read at EOF = %v, want io.EOF", err)
	}
	f.Close()
}

func TestTruncate(t *testing.T) {
	_, fs := newFS(t)
	f, _ := vfs.Create(fs, "/t")
	f.Write(make([]byte, 3*sim.BlockSize))
	free := fs.FreeBlocks()
	if err := f.Truncate(sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	// Freed blocks are released at the next journal commit (jbd2: no
	// reuse of blocks freed by a running transaction).
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free+2 {
		t.Fatalf("truncate freed %d blocks, want 2", fs.FreeBlocks()-free)
	}
	info, _ := f.Stat()
	if info.Size != sim.BlockSize || info.Blocks != 1 {
		t.Fatalf("after shrink: %+v", info)
	}
	// Grow produces a hole.
	f.Truncate(10 * sim.BlockSize)
	info, _ = f.Stat()
	if info.Size != 10*sim.BlockSize || info.Blocks != 1 {
		t.Fatalf("after grow: %+v", info)
	}
	f.Close()
}

func TestUnlinkFreesSpace(t *testing.T) {
	_, fs := newFS(t)
	// Warm the root directory's data block so it doesn't count as a leak.
	vfs.WriteFile(fs, "/warm", nil)
	free := fs.FreeBlocks()
	f, _ := vfs.Create(fs, "/big")
	f.Write(make([]byte, 64*sim.BlockSize))
	f.Close()
	if err := fs.Unlink("/big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // deferred frees apply at commit
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free {
		t.Fatalf("unlink leaked: free %d, want %d", fs.FreeBlocks(), free)
	}
	if _, err := fs.Stat("/big"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat after unlink = %v", err)
	}
	if err := fs.Unlink("/big"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("double unlink = %v", err)
	}
}

func TestMkdirTreeAndReadDir(t *testing.T) {
	_, fs := newFS(t)
	if err := fs.Mkdir("/a", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b", 0755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/a/b/f1", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/a/b/f2", []byte("2")); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "f1" || ents[1].Name != "f2" {
		t.Fatalf("entries = %+v", ents)
	}
	if err := fs.Mkdir("/a", 0755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir existing = %v", err)
	}
	if err := fs.Rmdir("/a/b"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	fs.Unlink("/a/b/f1")
	fs.Unlink("/a/b/f2")
	if err := fs.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/a"); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	_, fs := newFS(t)
	vfs.WriteFile(fs, "/src", []byte("payload"))
	fs.Mkdir("/d", 0755)
	if err := fs.Rename("/src", "/d/dst"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/src"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("source still exists")
	}
	got, err := vfs.ReadFile(fs, "/d/dst")
	if err != nil || string(got) != "payload" {
		t.Fatalf("dst = %q, %v", got, err)
	}
	// Rename over an existing file replaces it and frees the target.
	vfs.WriteFile(fs, "/other", []byte("other"))
	free := fs.FreeBlocks()
	if err := fs.Rename("/d/dst", "/other"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // deferred frees apply at commit
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free+1 {
		t.Fatalf("replaced target not freed: %d -> %d", free, fs.FreeBlocks())
	}
	got, _ = vfs.ReadFile(fs, "/other")
	if string(got) != "payload" {
		t.Fatalf("after replace = %q", got)
	}
}

// TestDirectoryChurnReusesTombstones: a directory whose population is
// bounded stays bounded on the device — a create takes over the record of
// an unlinked name of the same length instead of growing the directory
// file — and the reused records are what a remount lists.
func TestDirectoryChurnReusesTombstones(t *testing.T) {
	dev, fs := newFS(t)
	if err := fs.Mkdir("/d", 0755); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(20)
	live := map[string]bool{}
	for i := 0; i < 20000; i++ {
		name := fmt.Sprintf("/d/f%02d", rng.Intn(64))
		if live[name] {
			if err := fs.Unlink(name); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			delete(live, name)
			continue
		}
		f, err := vfs.Create(fs, name)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		f.Close()
		live[name] = true
	}
	if info, _ := fs.Stat("/d"); info.Blocks > 2 {
		t.Fatalf("a directory of at most 64 names holds %d blocks, want <= 2", info.Blocks)
	}
	fs.CommitMeta()
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := fs2.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(live) {
		t.Fatalf("remount lists %d names, want %d", len(ents), len(live))
	}
	for _, e := range ents {
		if !live["/d/"+e.Name] {
			t.Fatalf("remount lists %s, which was unlinked", e.Name)
		}
	}
	// The remounted directory knows its tombstones: every record in it is
	// a live name or a slot the next create can take.
	dir, err := fs2.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	recLen := direntSize("f00")
	if records, free := dir.tailOff/recLen, int64(len(dir.freeSlots[recLen])); records != int64(len(live))+free {
		t.Fatalf("remounted directory: %d records, %d live, %d known free", records, len(live), free)
	}
}

func TestManyExtentsOverflow(t *testing.T) {
	_, fs := newFS(t)
	// Force fragmentation: create interleaved files so extents cannot
	// merge, then verify a file with > InlineExtents extents round-trips
	// through mount.
	fa, _ := vfs.Create(fs, "/a")
	fb, _ := vfs.Create(fs, "/b")
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 64; i++ {
		blk[0] = byte(i)
		fa.Write(blk)
		fb.Write(blk) // interleaves allocation, fragmenting /a
	}
	fa.Sync()
	fb.Sync()
	fs.mu.Lock()
	nExt := len(fa.(*File).in.extents)
	fs.mu.Unlock()
	if nExt <= InlineExtents {
		t.Skipf("allocation pattern produced only %d extents", nExt)
	}
	fa.Close()
	fb.Close()
}

func TestPersistenceAcrossCrashAndMount(t *testing.T) {
	dev, fs := newFS(t)
	vfs.WriteFile(fs, "/data", bytes.Repeat([]byte("x"), 2*sim.BlockSize))
	fs.Mkdir("/dir", 0755)
	vfs.WriteFile(fs, "/dir/nested", []byte("nested-content"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/dir/nested")
	if err != nil || string(got) != "nested-content" {
		t.Fatalf("nested after remount = %q, %v", got, err)
	}
	info, err := fs2.Stat("/data")
	if err != nil || info.Size != 2*sim.BlockSize {
		t.Fatalf("data after remount: %+v, %v", info, err)
	}
}

func TestCrashBeforeFsyncLosesUnsyncedMetadata(t *testing.T) {
	dev, fs := newFS(t)
	vfs.WriteFile(fs, "/durable", []byte("d")) // WriteFile syncs
	f, _ := vfs.Create(fs, "/volatile")        // never synced
	f.Write([]byte("v"))
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	fs2, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/durable"); err != nil {
		t.Fatalf("synced file lost: %v", err)
	}
	// The unsynced create may or may not survive depending on batching,
	// but the file system must mount and stay consistent either way.
	if _, err := fs2.Stat("/volatile"); err != nil && !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("inconsistent state for unsynced file: %v", err)
	}
}

func TestTable1AppendCostAnchor(t *testing.T) {
	dev, fs := newFS(t)
	f, _ := vfs.Create(fs, "/bench")
	// Warm up allocation path.
	f.Write(make([]byte, sim.BlockSize))
	clk := dev.Clock()
	before := clk.Now()
	const n = 64
	for i := 0; i < n; i++ {
		f.Write(make([]byte, sim.BlockSize))
	}
	per := (clk.Now() - before) / n
	// Paper Table 1: ext4 DAX 4 KB append = 9002 ns. Accept 25% slack.
	if per < 6700 || per > 11300 {
		t.Fatalf("ext4 DAX append = %d ns/op, want ~9002", per)
	}
	f.Close()
}

func TestTable6SyscallShape(t *testing.T) {
	dev, fs := newFS(t)
	clk := dev.Clock()
	meas := func(fn func()) int64 {
		s := clk.Now()
		fn()
		return clk.Now() - s
	}
	f, _ := vfs.Create(fs, "/m")
	f.Write(make([]byte, 16384))
	fsyncNs := meas(func() { f.Sync() })
	buf := make([]byte, 16384)
	readNs := meas(func() { f.ReadAt(buf, 0) })
	f.Close()
	var f2 vfs.File
	openNs := meas(func() { f2, _ = vfs.Open(fs, "/m") }) // open of existing file
	closeNs := meas(func() { f2.Close() })
	unlinkNs := meas(func() { fs.Unlink("/m") })
	// Shape from Table 6 (ext4 DAX column): open 1.54, close 0.34,
	// fsync 28.98, read(16K) 5.04, unlink 8.60 µs. Check ordering and
	// rough magnitude.
	if !(closeNs < openNs && openNs < readNs && readNs < unlinkNs && unlinkNs < fsyncNs) {
		t.Fatalf("syscall cost ordering wrong: open=%d close=%d fsync=%d read=%d unlink=%d",
			openNs, closeNs, fsyncNs, readNs, unlinkNs)
	}
	if openNs < 1000 || openNs > 2500 {
		t.Fatalf("open = %dns, want ~1540", openNs)
	}
	if fsyncNs < 20000 || fsyncNs > 40000 {
		t.Fatalf("fsync = %dns, want ~28980", fsyncNs)
	}
	if readNs < 3500 || readNs > 7000 {
		t.Fatalf("read 16K = %dns, want ~5040", readNs)
	}
}

// TestShrinkZeroesCutTail: a truncate that leaves a partial last block
// zeroes what it cut off inside that block — atomically with the new size,
// through the journal — so every way of growing the file back shows zeros,
// and a crash before the commit shows the old file, whatever grew it in
// between.
func TestShrinkZeroesCutTail(t *testing.T) {
	old := bytes.Repeat([]byte{0xAA}, 3000)
	shrunk := func(t *testing.T) (*pmem.Device, *FS, *File) {
		dev, fs := newFS(t)
		f, _ := vfs.Create(fs, "/stale")
		if _, err := f.Write(old); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(1000); err != nil {
			t.Fatal(err)
		}
		return dev, fs, f.(*File)
	}
	want := func(size int, data map[int]byte) []byte {
		w := make([]byte, size)
		copy(w, old[:1000])
		for i, b := range data {
			w[i] = b
		}
		return w
	}
	// Each way of growing the file back over the cut bytes, and what it
	// must read as afterwards.
	grow := []struct {
		name string
		do   func(fs *FS, f *File) error
		want []byte
	}{
		{"nothing", func(*FS, *File) error { return nil }, want(1000, nil)},
		{"truncate up", func(_ *FS, f *File) error { return f.Truncate(2 * sim.BlockSize) },
			want(2*sim.BlockSize, nil)},
		{"write beyond EOF", func(_ *FS, f *File) error { _, err := f.WriteAt([]byte{0xBB}, 2000); return err },
			want(2001, map[int]byte{2000: 0xBB})},
		{"write in a later block", func(_ *FS, f *File) error { _, err := f.WriteAt([]byte{0xBB}, 3*sim.BlockSize); return err },
			want(3*sim.BlockSize+1, map[int]byte{3 * sim.BlockSize: 0xBB})},
		{"relink beyond EOF", func(fs *FS, f *File) error {
			src, _ := vfs.Create(fs, "/src")
			if _, err := src.Write(bytes.Repeat([]byte{0xCC}, sim.BlockSize)); err != nil {
				return err
			}
			b, err := fs.BeginRelink(pmem.SrcForeground, f, []Move{{Src: src.(*File), DstOff: sim.BlockSize, Len: sim.BlockSize}}) // FS.Relink would commit
			if err != nil {
				return err
			}
			defer b.End()
			return relink1(b, src.(*File), f, 0, sim.BlockSize, sim.BlockSize, 2*sim.BlockSize)
		}, append(want(sim.BlockSize, nil), bytes.Repeat([]byte{0xCC}, sim.BlockSize)...)},
	}
	for _, g := range grow {
		t.Run(g.name, func(t *testing.T) {
			_, fs, f := shrunk(t)
			if err := g.do(fs, f); err != nil {
				t.Fatal(err)
			}
			if got, _ := vfs.ReadFile(fs, "/stale"); !bytes.Equal(got, g.want) {
				t.Fatalf("cut bytes visible: first difference at %d", firstDiff(got, g.want))
			}
		})
		// Neither the truncate nor the growth committed: the crash must
		// show the synced file, not zeros under the old size.
		t.Run(g.name+", crash before commit", func(t *testing.T) {
			dev, fs, f := shrunk(t)
			if err := g.do(fs, f); err != nil {
				t.Fatal(err)
			}
			if err := dev.Crash(sim.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
			fs2, _, err := Mount(dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := vfs.ReadFile(fs2, "/stale")
			if g.name == "write beyond EOF" && len(got) == len(old) {
				// As ever in ordered mode, a write's bytes land under the
				// old size before its metadata commits; landing in the
				// block the truncate cut, it can take the cut's zeros of
				// the cache line it touches with it — and nothing else.
				line := got[2000/sim.CacheLine*sim.CacheLine:][:sim.CacheLine]
				copy(line, bytes.Repeat([]byte{0xAA}, sim.CacheLine))
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("uncommitted truncate damaged the file: %d bytes, first difference at %d",
					len(got), firstDiff(got, old))
			}
		})
		// Committed, the zeros are on media with the size.
		t.Run(g.name+", crash after commit", func(t *testing.T) {
			dev, fs, f := shrunk(t)
			if err := g.do(fs, f); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := dev.Crash(sim.NewRNG(7)); err != nil {
				t.Fatal(err)
			}
			fs2, _, err := Mount(dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			f2, err := fs2.OpenFile("/stale", vfs.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Grow once more, so that what the committed state left past
			// EOF in the last block is read too.
			size := (int64(len(g.want))/sim.BlockSize + 1) * sim.BlockSize
			if err := f2.Truncate(size); err != nil {
				t.Fatal(err)
			}
			w := append(append([]byte(nil), g.want...), make([]byte, size-int64(len(g.want)))...)
			if got, _ := vfs.ReadFile(fs2, "/stale"); !bytes.Equal(got, w) {
				t.Fatalf("after commit and crash: first difference at %d", firstDiff(got, w))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
