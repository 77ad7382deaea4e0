package strata

import (
	"bytes"
	"errors"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func newStrata(t testing.TB) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(),
		TrackPersistence: true, TrackWear: true})
	return dev, New(dev, Config{PrivateLogBytes: 2 << 20})
}

func TestWriteReadThroughLog(t *testing.T) {
	_, fs := newStrata(t)
	f, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("logged-data"))
	got := make([]byte, 11)
	if n, err := f.ReadAt(got, 0); err != nil || n != 11 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(got) != "logged-data" {
		t.Fatalf("read %q", got)
	}
	// The data must still be only in the private log: shared file empty.
	if ss := fs.Stats(); ss.DigestBytes != 0 || ss.LoggedBytes != 11 {
		t.Fatalf("stats = %+v", ss)
	}
	f.Close()
}

func TestOverwriteNewestWins(t *testing.T) {
	_, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/f")
	f.WriteAt([]byte("AAAAAAAA"), 0)
	f.WriteAt([]byte("BBBB"), 2)
	got := make([]byte, 8)
	f.ReadAt(got, 0)
	if string(got) != "AABBBBAA" {
		t.Fatalf("overlay resolution = %q, want AABBBBAA", got)
	}
	f.Close()
}

func TestDigestMovesDataToShared(t *testing.T) {
	_, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/f")
	payload := bytes.Repeat([]byte("D"), 2*sim.BlockSize)
	f.Write(payload)
	fs.Digest()
	ss := fs.Stats()
	if ss.Digests != 1 || ss.DigestBytes != int64(len(payload)) {
		t.Fatalf("digest stats = %+v", ss)
	}
	// Content still correct after digest (now from the shared area).
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content wrong after digest")
	}
	f.Close()
}

func TestAppendWorkloadWritesDataTwice(t *testing.T) {
	// The paper's central claim about Strata: appends cannot coalesce, so
	// write IO is ~2x the application bytes.
	dev, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/appends")
	appBytes := int64(0)
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 64; i++ {
		f.Write(blk)
		appBytes += int64(len(blk))
	}
	fs.Digest()
	ss := fs.Stats()
	if ss.LoggedBytes != appBytes || ss.DigestBytes != appBytes {
		t.Fatalf("logged=%d digested=%d app=%d; appends must be written twice",
			ss.LoggedBytes, ss.DigestBytes, appBytes)
	}
	// Device-level write IO must be at least 2x the application bytes.
	if w := dev.Stats().BytesWritten(); w < 2*appBytes {
		t.Fatalf("device write IO %d < 2x app bytes %d", w, 2*appBytes)
	}
	f.Close()
}

func TestOverwriteWorkloadCoalesces(t *testing.T) {
	// Repeated overwrites of the same block coalesce at digest: digested
	// bytes ≪ logged bytes.
	_, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/ow")
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 32; i++ {
		blk[0] = byte(i)
		f.WriteAt(blk, 0)
	}
	fs.Digest()
	ss := fs.Stats()
	if ss.LoggedBytes != 32*sim.BlockSize {
		t.Fatalf("logged = %d", ss.LoggedBytes)
	}
	if ss.DigestBytes != sim.BlockSize {
		t.Fatalf("digested = %d, want one block after coalescing", ss.DigestBytes)
	}
	got := make([]byte, 1)
	f.ReadAt(got, 0)
	if got[0] != 31 {
		t.Fatalf("final content = %d, want 31", got[0])
	}
	f.Close()
}

func TestAutoDigestOnLogPressure(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	fs := New(dev, Config{PrivateLogBytes: 256 << 10, DigestAt: 50})
	f, _ := vfs.Create(fs, "/big")
	blk := make([]byte, sim.BlockSize)
	for i := 0; i < 64; i++ { // 256 KB of data through a 256 KB log
		if _, err := f.Write(blk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fs.Stats().Digests == 0 {
		t.Fatal("log pressure never triggered a digest")
	}
	info, _ := f.Stat()
	if info.Size != 64*sim.BlockSize {
		t.Fatalf("size = %d", info.Size)
	}
	f.Close()
}

func TestWritesNoKernelTrap(t *testing.T) {
	_, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/ut")
	traps := fs.shared.Stats().Traps
	f.Write(make([]byte, 128))
	if fs.shared.Stats().Traps != traps {
		t.Fatal("LibFS write trapped into the kernel")
	}
	f.Close()
}

func TestCrashRecoveryFromPrivateLog(t *testing.T) {
	dev, fs := newStrata(t)
	f, _ := vfs.Create(fs, "/r")
	f.Write([]byte("survives-in-log"))
	// Logged writes are synchronous: no fsync, crash now.
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	fs2, replayed, err := Mount(dev, Config{PrivateLogBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("no private-log records replayed")
	}
	got, err := vfs.ReadFile(fs2, "/r")
	if err != nil || string(got) != "survives-in-log" {
		t.Fatalf("after crash = %q, %v", got, err)
	}
}

func TestUnlinkFlushesOverlay(t *testing.T) {
	_, fs := newStrata(t)
	vfs.WriteFile(fs, "/a", []byte("aaa"))
	f, _ := fs.OpenFile("/a", vfs.O_RDWR, 0)
	f.WriteAt([]byte("xxx"), 0)
	f.Close()
	if err := fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	// Recreate same name: stale overlay must not leak into the new file.
	vfs.WriteFile(fs, "/a", []byte("yyy"))
	got, _ := vfs.ReadFile(fs, "/a")
	if string(got) != "yyy" {
		t.Fatalf("new file sees stale overlay: %q", got)
	}
}

func TestMetadataPassThrough(t *testing.T) {
	_, fs := newStrata(t)
	fs.Mkdir("/d", 0755)
	vfs.WriteFile(fs, "/d/f", []byte("z"))
	ents, err := fs.ReadDir("/d")
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fs.Rename("/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/d/g")
	if string(got) != "z" {
		t.Fatalf("after rename = %q", got)
	}
}

// A truncate through a read-only handle fails with ErrReadOnly before it
// does any work: the file's pending log entries stay in the private log,
// undigested.
func TestReadOnlyTruncateDigestsNothing(t *testing.T) {
	_, fs := newStrata(t)
	w, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("pending in the private log")); err != nil {
		t.Fatal(err)
	}
	ro, err := fs.OpenFile("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Stats().Digests
	if err := ro.Truncate(0); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("truncate through O_RDONLY = %v, want %v", err, vfs.ErrReadOnly)
	}
	if after := fs.Stats().Digests; after != before {
		t.Fatalf("a refused truncate digested: digests %d -> %d", before, after)
	}
	ro.Close()
	w.Close()
}
