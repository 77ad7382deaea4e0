package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// openLog is a vfs.FileSystem decorator that keeps every file the server
// opens on the backend, so a test can tell which of them are still open.
// Its files keep the backend's vfs.Mappable capability.
type openLog struct {
	vfs.FileSystem
	mu    sync.Mutex
	files []*openedFile
}

type openedFile struct {
	vfs.File
	vfs.Mappable
	l      *openLog
	closed bool
	stats  int // calls of the file's own Stat
}

func (l *openLog) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	f, err := l.FileSystem.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	m, _ := f.(vfs.Mappable)
	of := &openedFile{File: f, Mappable: m, l: l}
	l.mu.Lock()
	l.files = append(l.files, of)
	l.mu.Unlock()
	return of, nil
}

func (f *openedFile) Stat() (vfs.FileInfo, error) {
	f.l.mu.Lock()
	f.stats++
	f.l.mu.Unlock()
	return f.File.Stat()
}

// statCalls reports how many times the file's own Stat ran.
func (f *openedFile) statCalls() int {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	return f.stats
}

func (f *openedFile) Close() error {
	f.l.mu.Lock()
	f.closed = true
	f.l.mu.Unlock()
	return f.File.Close()
}

// opens reports how many files the backend has opened.
func (l *openLog) opens() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.files)
}

// last returns the file the backend opened last.
func (l *openLog) last() *openedFile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.files[len(l.files)-1]
}

func (f *openedFile) isClosed() bool {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	return f.closed
}

// parkStack is a stack served through an openLog, with a copy-path
// client attached at the root.
type parkStack struct {
	st  *stack.Stack
	log *openLog
	srv *server.Server
	c   *server.Client
}

func newParkStack(t *testing.T) *parkStack { return newParkStackOf(t, "splitfs-strict") }

func newParkStackOf(t *testing.T, kind string) *parkStack {
	t.Helper()
	st, err := stack.New(kind, stack.Small)
	if err != nil {
		t.Fatal(err)
	}
	p := &parkStack{st: st, log: &openLog{FileSystem: st.FS}}
	p.srv = server.New(p.log, server.Config{})
	t.Cleanup(func() { p.srv.Close() })
	if p.c, err = server.NewLoopbackConfig(p.srv, server.ClientConfig{Root: "/"}); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *parkStack) usplit() *splitfs.FS { return p.st.Base.(*splitfs.FS) }

// write creates path holding data, through the server.
func (p *parkStack) write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := vfs.WriteFile(p.c, path, data); err != nil {
		t.Fatal(err)
	}
}

// park opens path read-only through the server, reads a little of it
// and closes it, and returns the backend file the close parked.
func (p *parkStack) park(t *testing.T, path string) *openedFile {
	t.Helper()
	f, err := p.c.OpenFile(path, vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	backend := p.log.last()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if backend.isClosed() {
		t.Fatalf("closing the read-only handle of %s closed its backend file: nothing parked", path)
	}
	return backend
}

// read opens path read-only through the server and reads it whole from
// the handle's offset, which a fresh open puts at 0.
func (p *parkStack) read(path string) ([]byte, error) { return readAll(p.c, path) }

func readAll(c vfs.FileSystem, path string) ([]byte, error) {
	f, err := c.OpenFile(path, vfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return buf.Bytes(), err
}

func fill(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

// TestParkedOpenMakesNoBackendOpen: a read-only open of a name whose
// closed handle is parked takes the parked file: no backend open —
// K-Split is not entered and U-Split logs no open or close — and the
// client, whose fresh handle is at offset 0, reads the file from its
// start. The parked file's own Stat
// runs at its first hit only: the inode it learned parks with it.
func TestParkedOpenMakesNoBackendOpen(t *testing.T) {
	p := newParkStack(t)
	want := fill('a', 3*sim.BlockSize)
	p.write(t, "/a", want)
	parked := p.park(t, "/a")
	opens, traps, entries := p.log.opens(), p.usplit().KFS().Stats().Traps, p.usplit().Stats().LogEntries
	for range 3 {
		got, err := p.read("/a")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes back, want the file's %d", len(got), len(want))
		}
	}
	if n := p.log.opens() - opens; n != 0 {
		t.Errorf("%d backend opens for three parked opens, want 0", n)
	}
	if n := p.usplit().KFS().Stats().Traps - traps; n != 0 {
		t.Errorf("%d K-Split traps, want 0", n)
	}
	if n := p.usplit().Stats().LogEntries - entries; n != 0 {
		t.Errorf("%d U-Split log entries, want 0", n)
	}
	if n := parked.statCalls(); n != 1 {
		t.Errorf("the parked file's own Stat ran %d times in three hits, want 1", n)
	}
}

// TestParkedFileEvictions runs each event that must close a parked
// file and checks that it did.
func TestParkedFileEvictions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trigger func(t *testing.T, p *parkStack) error
	}{
		{"writable open", func(t *testing.T, p *parkStack) error {
			f, err := p.c.OpenFile("/d/a", vfs.O_RDWR, 0)
			if err == nil {
				err = f.Close()
			}
			return err
		}},
		{"unlink", func(t *testing.T, p *parkStack) error { return p.c.Unlink("/d/a") }},
		{"rename onto the name", func(t *testing.T, p *parkStack) error {
			p.write(t, "/d/b", fill('b', 512))
			return p.c.Rename("/d/b", "/d/a")
		}},
		{"rename of the parent", func(t *testing.T, p *parkStack) error { return p.c.Rename("/d", "/e") }},
		{"rmdir of the parent", func(t *testing.T, p *parkStack) error {
			// The file goes behind the server's back, or the directory
			// could not be removed.
			if err := p.st.FS.Unlink("/d/a"); err != nil {
				return err
			}
			return p.c.Rmdir("/d")
		}},
		{"server close", func(t *testing.T, p *parkStack) error { return p.srv.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newParkStack(t)
			if err := p.c.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			p.write(t, "/d/a", fill('a', sim.BlockSize))
			parked := p.park(t, "/d/a")
			if err := tc.trigger(t, p); err != nil {
				t.Fatal(err)
			}
			if !parked.isClosed() {
				t.Fatal("the parked file is still open")
			}
		})
	}
}

// TestUnlinkOfParkedNameFreesItsBlocks: the blocks of a file whose
// closed handle is parked go back at the unlink, as they do when nothing
// holds the file: ext4-dax frees them at the commit after it, where a
// held file's would wait for its last close.
func TestUnlinkOfParkedNameFreesItsBlocks(t *testing.T) {
	p := newParkStackOf(t, "ext4-dax")
	kfs := p.st.Base.(*ext4dax.FS)
	k, err := p.c.OpenFile("/k", vfs.O_RDWR|vfs.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	commit := func() {
		t.Helper()
		if err := k.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	free := kfs.FreeBlocks()
	p.write(t, "/a", fill('a', 16*sim.BlockSize))
	if kfs.FreeBlocks() >= free {
		t.Fatalf("writing /a took no blocks (%d free before, %d after)", free, kfs.FreeBlocks())
	}
	p.park(t, "/a")
	if err := p.c.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	commit()
	if got := kfs.FreeBlocks(); got != free {
		t.Fatalf("%d blocks free after the unlink, want %d as before the create", got, free)
	}
}

// TestRenameRekeysParkedFile: the file parked at a renamed name is
// parked at the new name, where the next open takes it; the old name is
// gone.
func TestRenameRekeysParkedFile(t *testing.T) {
	p := newParkStack(t)
	want := fill('a', sim.BlockSize)
	p.write(t, "/r0", want)
	parked := p.park(t, "/r0")
	if err := p.c.Rename("/r0", "/r1"); err != nil {
		t.Fatal(err)
	}
	if parked.isClosed() {
		t.Fatal("the rename closed the parked file")
	}
	opens := p.log.opens()
	got, err := p.read("/r1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/r1 reads %d bytes, want %d", len(got), len(want))
	}
	if n := p.log.opens() - opens; n != 0 {
		t.Errorf("opening the new name took %d backend opens, want the parked file", n)
	}
	if _, err := p.read("/r0"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("opening the old name: %v, want ErrNotExist", err)
	}
}

// TestWritableHandleBlocksParking: a read-only handle closed while a
// writable one is open at its name does not park, so the writer's close
// is U-Split's last close of the file and relinks what it staged.
func TestWritableHandleBlocksParking(t *testing.T) {
	p := newParkStack(t)
	p.write(t, "/a", fill('a', sim.BlockSize))
	w, err := p.c.OpenFile("/a", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.c.OpenFile("/a", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	reader := p.log.last()
	if _, err := w.WriteAt(fill('b', sim.BlockSize), sim.BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reader.isClosed() {
		t.Fatal("the read-only handle's file parked beside a writable handle")
	}
	relinks := p.usplit().Stats().Relinks
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if p.usplit().Stats().Relinks == relinks {
		t.Fatal("the writer's close relinked nothing: it was not the file's last close")
	}
}

// TestParkedFileRefusedAfterBackendRename: a name replaced on the
// backend directly, where the server does not see it, leaves the parked
// file's key stale. The inode check refuses it, closes it, and the open
// reads the file the name holds now: at the file's first hit, where the
// check asks the file for its inode, and after a hit re-parked it with
// the inode it learned.
func TestParkedFileRefusedAfterBackendRename(t *testing.T) {
	for _, hits := range []int{0, 1} {
		t.Run(fmt.Sprintf("after %d hits", hits), func(t *testing.T) {
			p := newParkStack(t)
			p.write(t, "/a", fill('a', sim.BlockSize))
			p.write(t, "/b", fill('b', sim.BlockSize))
			parked := p.park(t, "/a")
			for range hits {
				opens := p.log.opens()
				if got, err := p.read("/a"); err != nil || !bytes.Equal(got, fill('a', sim.BlockSize)) {
					t.Fatalf("a parked hit of /a: %v, %d bytes", err, len(got))
				}
				if p.log.opens() != opens || parked.isClosed() {
					t.Fatal("test premise: the read took the parked file and parked it again")
				}
			}
			if err := p.st.FS.Rename("/b", "/a"); err != nil {
				t.Fatal(err)
			}
			got, err := p.read("/a")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fill('b', sim.BlockSize)) {
				t.Fatalf("/a reads %q..., want the renamed file's bytes", got[:min(8, len(got))])
			}
			if !parked.isClosed() {
				t.Fatal("the stale parked file is still open")
			}
		})
	}
}

// TestParkingRacesNamespaceChanges runs two sessions on real goroutines
// against shared names: each opens, reads and closes the names
// read-only, replaces them by renaming a file onto them, unlinks them,
// renames them away and rewrites them through writable handles. Every
// file a name holds is filled with that name's byte, so a parked file
// handed out under the wrong name reads wrong.
func TestParkingRacesNamespaceChanges(t *testing.T) {
	p := newParkStack(t)
	names := []string{"/x", "/y"}
	body := func(name string) []byte { return fill(name[1], 2*sim.BlockSize) }
	for _, n := range names {
		p.write(t, n, body(n))
	}
	opens := p.log.opens()
	var clientOpens atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for s := range 2 {
		c, err := server.NewLoopbackConfig(p.srv, server.ClientConfig{Root: "/"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRNG(uint64(s) + 1)
			tmp := fmt.Sprintf("/tmp%d", s)
			// replace puts a fresh file with n's bytes at n.
			replace := func(n string) error {
				clientOpens.Add(1)
				if err := vfs.WriteFile(c, tmp, body(n)); err != nil {
					return err
				}
				return c.Rename(tmp, n)
			}
			errs <- func() error {
				for i := range 300 {
					n := names[rng.Intn(len(names))]
					var err error
					switch roll := rng.Intn(10); {
					case roll < 6:
						clientOpens.Add(1)
						var got []byte
						got, err = readAll(c, n)
						if err == nil && !bytes.Equal(got, body(n)) {
							return fmt.Errorf("op %d: %s reads %d bytes starting %q", i, n, len(got), got[:min(4, len(got))])
						}
					case roll < 7:
						err = replace(n)
					case roll < 8:
						err = c.Unlink(n)
					case roll < 9:
						if err = c.Rename(n, tmp); err == nil {
							err = c.Unlink(tmp)
						}
					default:
						clientOpens.Add(1)
						var f vfs.File
						if f, err = c.OpenFile(n, vfs.O_RDWR, 0); err == nil {
							_, err = f.WriteAt(body(n), 0)
							if cerr := f.Close(); err == nil {
								err = cerr
							}
						}
					}
					if errors.Is(err, vfs.ErrNotExist) {
						err = replace(n)
					}
					if err != nil {
						return fmt.Errorf("op %d on %s: %w", i, n, err)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if backend := int64(p.log.opens() - opens); backend >= clientOpens.Load() {
		t.Errorf("%d backend opens for %d client opens: no open took a parked file", backend, clientOpens.Load())
	}
}
