package splitfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Regression tests for the tmpfile pattern (unlink while open) and inode
// recycling: the open handle must keep working on the orphan inode, the
// inode number must not be recycled until the last close, and after the
// close a recycled number must get a fresh open-file description — the
// stale-description bug silently lost writes to the new file.
func TestUnlinkWhileOpenThenRecycle(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	fa, err := fs.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	doomed := []byte("doomed-but-readable")
	if _, err := fa.Write(doomed); err != nil {
		t.Fatal(err)
	}
	if err := fa.Sync(); err != nil {
		t.Fatal(err)
	}
	// Staged-but-not-fsynced data must also survive the unlink.
	staged := []byte("+staged-tail")
	if _, err := fa.Write(staged); err != nil {
		t.Fatal(err)
	}
	st, err := fa.Stat()
	if err != nil {
		t.Fatal(err)
	}
	inoA := st.Ino
	freeBefore := fs.KFS().FreeBlocks()
	if err := fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	// POSIX tmpfile semantics: the orphan inode keeps its blocks until
	// the last close, and the open handle still reads its data —
	// including the staged overlay.
	if got := fs.KFS().FreeBlocks(); got != freeBefore {
		t.Fatalf("unlink freed an open file's blocks early: %d -> %d", freeBefore, got)
	}
	want := append(append([]byte(nil), doomed...), staged...)
	buf := make([]byte, len(want))
	if _, err := fa.ReadAt(buf, 0); err != nil {
		t.Fatalf("read of unlinked-open file: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("unlinked-open read = %q, want %q", buf, want)
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	// The orphan's blocks are released by the last close, but the bitmap
	// clears only apply at the next journal commit (deferred frees).
	if err := fs.KFS().CommitMeta(); err != nil {
		t.Fatal(err)
	}
	if got := fs.KFS().FreeBlocks(); got <= freeBefore {
		t.Fatalf("last close did not free the orphan's blocks: %d vs %d", got, freeBefore)
	}

	// Churn creates until the allocator recycles inoA (newEnv caps
	// MaxInodes at 1024), then prove the recycled number gets a fresh
	// description whose writes reach the kernel.
	var fb vfs.File
	var pathB string
	for i := 0; i < 1100 && fb == nil; i++ {
		p := fmt.Sprintf("/recycle-%04d", i)
		f, err := fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if info.Ino == inoA {
			fb, pathB = f, p
			break
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
	if fb == nil {
		t.Fatal("inode number never recycled; test environment changed?")
	}
	want = []byte("WORLD")
	if _, err := fb.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	// The kernel must see the new file's data — with the stale ofile bug,
	// the relink landed in the dead inode and K-Split reported size 0.
	kinfo, err := fs.KFS().Stat(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if kinfo.Size != int64(len(want)) {
		t.Fatalf("K-Split sees size %d for %s, want %d (write lost in stale ofile)",
			kinfo.Size, pathB, len(want))
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, pathB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q after recycled-ino churn, want %q", got, want)
	}
}

// TestCloseRelinksUnlinkedStagedData: staged writes made after an unlink
// land in the orphan inode at close (harmlessly — the blocks free with
// it) without corrupting anything, and the attribute cache must not be
// resurrected for the dead path.
func TestUnlinkedStagedDataDoesNotResurrectAttrs(t *testing.T) {
	_, fs := newEnv(t, POSIX)
	f, err := fs.OpenFile("/ghost", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("post-unlink write")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/ghost"); err == nil {
		t.Fatal("Stat succeeded for an unlinked path (stale attrs resurrected)")
	}
}

// TestClosedHandleAfterRecycle: a description retires with its last handle
// and the next open of any file takes it, overlay, chunk and kernel handle
// included (DESIGN.md, "Host allocation and peak RSS"). A handle of its
// earlier life must then get vfs.ErrClosed from every method — a stale
// write or truncate that reached the description would land in the file it
// serves now — and MapEpoch must return neither an epoch the handle saw
// while open nor the new file's.
func TestClosedHandleAfterRecycle(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			fa, err := fs.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			a := fa.(*File)
			seen := map[uint64]bool{}
			step := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				seen[a.MapEpoch()] = true
			}
			step(nil)
			_, err = fa.Write(pattern(3*sim.BlockSize, 1))
			step(err)
			step(fa.Sync())
			_, err = fa.WriteAt(pattern(100, 2), 10) // in place, or staged over relinked bytes
			step(err)
			_, err = fa.Write(pattern(5000, 3)) // staged append
			step(err)
			step(fa.Truncate(2 * sim.BlockSize))
			if err := fa.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Unlink("/a"); err != nil {
				t.Fatal(err)
			}

			want := pattern(6000, 9)
			fb, err := fs.OpenFile("/b", vfs.O_RDWR|vfs.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if fb.(*File).of != a.of {
				t.Fatal("test premise: /b did not take /a's retired description")
			}
			if _, err := fb.Write(want); err != nil {
				t.Fatal(err)
			}
			if err := fb.Sync(); err != nil {
				t.Fatal(err)
			}

			buf := make([]byte, 64)
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"Read", func() error { _, err := fa.Read(buf); return err }},
				{"ReadAt", func() error { _, err := fa.ReadAt(buf, 0); return err }},
				{"Write", func() error { _, err := fa.Write(buf); return err }},
				{"WriteAt", func() error { _, err := fa.WriteAt(buf, 0); return err }},
				{"Seek", func() error { _, err := fa.Seek(0, vfs.SeekEnd); return err }},
				{"Truncate", func() error { return fa.Truncate(0) }},
				{"Sync", func() error { return fa.Sync() }},
				{"Stat", func() error { _, err := fa.Stat(); return err }},
				{"MapExtents", func() error { _, _, err := a.MapExtents(0, sim.BlockSize); return err }},
				{"Close", func() error { return fa.Close() }},
			} {
				if err := c.call(); !errors.Is(err, vfs.ErrClosed) {
					t.Errorf("%s on the stale handle: %v, want %v", c.name, err, vfs.ErrClosed)
				}
			}
			if e := a.MapEpoch(); seen[e] || e == fb.(*File).MapEpoch() {
				t.Errorf("the stale handle's MapEpoch reads %d: one it read while open (%v) or /b's", e, seen[e])
			}

			got, err := vfs.ReadFile(fs, "/b")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("/b reads %d bytes (%v), want its own %d", len(got), err, len(want))
			}
			if info, err := fb.Stat(); err != nil || info.Size != int64(len(want)) {
				t.Fatalf("/b stats %+v (%v), want size %d", info, err, len(want))
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandleRacesItsCloseAndRecycling: ReadAt, Stat and MapEpoch on one
// handle race that handle's Close while another goroutine creates, writes
// and unlinks files, each of which takes the description as soon as it
// retires. Every call returns this file's bytes, size and inode or
// vfs.ErrClosed; MapEpoch never goes back, and once Close has returned it
// reads staleEpoch. Run it under -race: the description is reinitialised
// under locks a stale handle takes, and its kernel handle reopened while
// MapEpoch reads it lock-free.
func TestHandleRacesItsCloseAndRecycling(t *testing.T) {
	for _, mode := range []Mode{POSIX, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			var stop atomic.Bool
			churned := make(chan error, 1)
			go func() {
				churned <- func() error {
					for i := 0; !stop.Load(); i++ {
						p := fmt.Sprintf("/churn%d", i%4)
						f, err := vfs.Create(fs, p)
						if err != nil {
							return err
						}
						if _, err := f.Write(pattern(3000, 7)); err != nil {
							return err
						}
						if err := f.Close(); err != nil {
							return err
						}
						if err := fs.Unlink(p); err != nil {
							return err
						}
					}
					return nil
				}()
			}()
			data := pattern(2*sim.BlockSize+500, 5)
			for round := range 30 {
				name := fmt.Sprintf("/a%d", round)
				f, err := vfs.Create(fs, name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(data[:sim.BlockSize]); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil { // mapped and relinked, the rest staged
					t.Fatal(err)
				}
				if _, err := f.Write(data[sim.BlockSize:]); err != nil {
					t.Fatal(err)
				}
				info, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				h := f.(*File)
				var closed atomic.Bool
				var wg sync.WaitGroup
				fail := make(chan string, 3)
				wg.Add(3)
				go func() {
					defer wg.Done()
					buf := make([]byte, len(data))
					for {
						n, err := h.ReadAt(buf, 0)
						if errors.Is(err, vfs.ErrClosed) {
							return
						}
						if (err != nil && err != io.EOF) || !bytes.Equal(buf[:n], data[:n]) {
							fail <- fmt.Sprintf("ReadAt: %d bytes (%v), not the file's", n, err)
							return
						}
						runtime.Gosched()
					}
				}()
				go func() {
					defer wg.Done()
					for {
						got, err := h.Stat()
						if errors.Is(err, vfs.ErrClosed) {
							return
						}
						if err != nil || got.Ino != info.Ino || got.Size != info.Size {
							fail <- fmt.Sprintf("Stat: %+v (%v), want ino %d size %d", got, err, info.Ino, info.Size)
							return
						}
						runtime.Gosched()
					}
				}()
				go func() {
					defer wg.Done()
					last := uint64(0)
					for {
						done := closed.Load()
						e := h.MapEpoch()
						switch {
						case done && e != staleEpoch:
							fail <- fmt.Sprintf("MapEpoch after Close: %d, want staleEpoch", e)
							return
						case done:
							return
						case e < last: // staleEpoch is the largest: once read, read for good
							fail <- fmt.Sprintf("MapEpoch went back: %d after %d", e, last)
							return
						}
						last = e
						runtime.Gosched()
					}
				}()
				for range round % 8 {
					runtime.Gosched()
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				closed.Store(true)
				wg.Wait()
				close(fail)
				for msg := range fail {
					t.Error(msg)
				}
				if err := fs.Unlink(name); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			if err := <-churned; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTableHeldAcrossUnlinkAndRecreate: a reader holds a cached mapping
// of /a, in flight as mmapCache.load holds it, and a lease holder the
// extents and epoch of /a, while /a is unlinked (the mapping dropped, its
// table handed back) and forty files are created and unlinked, each
// mapped by a table the unlinks before it freed. Neither ever translates
// to a new file's blocks: the held table still maps /a's orphan, is
// nobody else's, and reads /a's bytes; the lease's extents still hold
// them, and its epoch moves only when /a's last handle closes. Once the
// reader's access ends, the next creates take the table — the hold is
// what kept it.
func TestTableHeldAcrossUnlinkAndRecreate(t *testing.T) {
	_, fs := newEnv(t, Sync)
	create := func(path string, data []byte) *File {
		t.Helper()
		f, err := vfs.Create(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // relinked, and mapped by the refresh
			t.Fatal(err)
		}
		return f.(*File)
	}
	tableOf := func(f *File) *ext4dax.Mapping {
		fs.mmaps.mu.RLock()
		defer fs.mmaps.mu.RUnlock()
		return fs.mmaps.regions[regionKey{f.of.ino, 0}]
	}
	old := pattern(3*sim.BlockSize, 1)
	a := create("/a", old)
	fs.kfs.BeginAccess()
	held := fs.mmaps.get(a.of, 0)
	if held == nil || held != tableOf(a) {
		t.Fatal("test premise: /a's fsync left no cached mapping")
	}
	devOff, _, _ := held.Translate(0, sim.BlockSize)
	lease, epoch, err := a.MapExtents(0, int64(len(old)))
	if err != nil || len(lease) == 0 {
		t.Fatalf("lease on /a: %v, %v", lease, err)
	}
	if err := fs.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if tableOf(a) != nil {
		t.Fatal("test premise: the unlink left /a's mapping cached")
	}

	overlaps := func(exts []vfs.Extent, off, n int64) bool {
		for _, e := range exts {
			if off < e.DevOff+e.Length && e.DevOff < off+n {
				return true
			}
		}
		return false
	}
	for i := range 40 {
		f := create(fmt.Sprintf("/n%d", i), pattern(1<<10*(1+i%4), byte(i)))
		if m := tableOf(f); m == nil || m == held {
			t.Fatalf("/n%d is mapped by %p, the held table %p", i, m, held)
		}
		exts, _, err := f.MapExtents(0, 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exts {
			if overlaps(lease, e.DevOff, e.Length) || overlaps([]vfs.Extent{{DevOff: devOff, Length: sim.BlockSize}}, e.DevOff, e.Length) {
				t.Fatalf("/n%d's blocks at %d are /a's", i, e.DevOff)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := fs.Unlink(fmt.Sprintf("/n%d", i-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, _, ok := held.Translate(0, sim.BlockSize); !ok || got != devOff {
		t.Fatalf("the held table translates /a's first block to %d (%v), want %d", got, ok, devOff)
	}
	buf := make([]byte, len(old))
	if n := held.Load(buf, 0); n != len(old) || !bytes.Equal(buf, old) {
		t.Fatalf("the held table loads %d bytes, not /a's", n)
	}
	if a.MapEpoch() != epoch {
		t.Fatal("the lease's epoch moved while /a's handle is open")
	}
	for _, e := range lease {
		got := make([]byte, e.Length)
		a.LoadMapped(got, e.DevOff)
		if !bytes.Equal(got, old[e.FileOff:e.FileOff+e.Length]) {
			t.Fatalf("the lease's extent at %d no longer holds /a's bytes", e.FileOff)
		}
	}
	fs.kfs.EndAccess()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.MapEpoch() == epoch {
		t.Fatal("the lease still validates after /a's last handle closed")
	}

	reused := false
	for i := 0; i < 80 && !reused; i++ {
		f := create(fmt.Sprintf("/m%d", i), pattern(sim.BlockSize, byte(i)))
		reused = tableOf(f) == held
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reused {
		t.Fatal("no create took the table once the access that held it ended")
	}
}
