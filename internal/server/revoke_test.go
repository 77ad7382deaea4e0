package server_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"splitfs/internal/server"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// callLog is a vfs.FileSystem decorator that records every backend call
// the server makes — namespace calls, and fstat and truncate on the
// files it opens — in order. Its files keep the backend's
// vfs.Mappable capability, so leases are granted through it.
type callLog struct {
	vfs.FileSystem
	calls []string
}

func (l *callLog) log(format string, args ...any) {
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}

func (l *callLog) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	l.log("open %s %#x", path, flag)
	f, err := l.FileSystem.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	m, _ := f.(vfs.Mappable)
	return &loggedFile{File: f, Mappable: m, l: l}, nil
}

func (l *callLog) Stat(path string) (vfs.FileInfo, error) {
	l.log("stat %s", path)
	return l.FileSystem.Stat(path)
}

func (l *callLog) Rename(oldPath, newPath string) error {
	l.log("rename %s %s", oldPath, newPath)
	return l.FileSystem.Rename(oldPath, newPath)
}

func (l *callLog) Unlink(path string) error {
	l.log("unlink %s", path)
	return l.FileSystem.Unlink(path)
}

type loggedFile struct {
	vfs.File
	vfs.Mappable
	l *callLog
}

func (f *loggedFile) Stat() (vfs.FileInfo, error) {
	f.l.log("fstat %s", f.Path())
	return f.File.Stat()
}

func (f *loggedFile) Truncate(size int64) error {
	f.l.log("truncate %s %d", f.Path(), size)
	return f.File.Truncate(size)
}

// TestRevocationChargesTheTenantNothing runs every revocation trigger
// from a tenant that holds no lease, once while another tenant holds a
// lease on an unrelated file and once while no lease is outstanding.
// The trigger must make the same backend calls and cost the same
// simulated time either way: revocation finds its victims in the
// server's name table, not with a lookup the tenant pays for.
func TestRevocationChargesTheTenantNothing(t *testing.T) {
	block := bytes.Repeat([]byte{0x3c}, 4096)
	triggers := []struct {
		name string
		run  func(c *server.Client, f vfs.File) error
	}{
		{"rename, destination absent", func(c *server.Client, _ vfs.File) error { return c.Rename("/x", "/y") }},
		{"rename, destination present", func(c *server.Client, _ vfs.File) error { return c.Rename("/x", "/z") }},
		{"unlink", func(c *server.Client, _ vfs.File) error { return c.Unlink("/x") }},
		{"writable open of an existing path", func(c *server.Client, _ vfs.File) error {
			_, err := c.OpenFile("/x", vfs.O_RDWR, 0)
			return err
		}},
		{"writable open of a new path", func(c *server.Client, _ vfs.File) error {
			_, err := c.OpenFile("/new", vfs.O_RDWR|vfs.O_CREATE, 0o644)
			return err
		}},
		{"O_TRUNC open", func(c *server.Client, _ vfs.File) error {
			_, err := c.OpenFile("/x", vfs.O_RDWR|vfs.O_TRUNC, 0)
			return err
		}},
		{"truncate", func(_ *server.Client, f vfs.File) error { return f.Truncate(1024) }},
	}
	// measure builds a fresh stack, lets the holder lease /held when
	// leased is set, and runs the trigger: its backend calls and the
	// simulated time it took.
	measure := func(t *testing.T, leased bool, trigger func(*server.Client, vfs.File) error) ([]string, int64) {
		st, err := stack.New("splitfs-strict", stack.Small)
		if err != nil {
			t.Fatal(err)
		}
		backend := &callLog{FileSystem: st.FS}
		srv := server.New(backend, server.Config{})
		defer srv.Close()
		holder, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
		if err != nil {
			t.Fatal(err)
		}
		tenant, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/held", "/x", "/z"} {
			if err := vfs.WriteFile(tenant, p, block); err != nil {
				t.Fatal(err)
			}
		}
		f, err := tenant.OpenFile("/x", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := holder.OpenFile("/held", vfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		if leased {
			if _, err := h.ReadAt(make([]byte, 512), 0); err != nil {
				t.Fatal(err)
			}
			want = 1
		}
		if srv.ActiveLeases() != want {
			t.Fatalf("%d leases outstanding before the trigger, want %d", srv.ActiveLeases(), want)
		}
		backend.calls = nil
		t0 := st.Clock.Now()
		if err := trigger(tenant, f); err != nil {
			t.Fatal(err)
		}
		ns := st.Clock.Now() - t0
		if leased && srv.ActiveLeases() != 1 {
			t.Fatalf("the trigger revoked the lease on an unrelated file")
		}
		return backend.calls, ns
	}
	for _, tr := range triggers {
		t.Run(tr.name, func(t *testing.T) {
			plainCalls, plainNs := measure(t, false, tr.run)
			leasedCalls, leasedNs := measure(t, true, tr.run)
			if !slices.Equal(leasedCalls, plainCalls) {
				t.Errorf("backend calls with a lease outstanding:\n\t%q\nwithout:\n\t%q", leasedCalls, plainCalls)
			}
			if leasedNs != plainNs {
				t.Errorf("took %d sim ns with a lease outstanding, %d without", leasedNs, plainNs)
			}
		})
	}
}

// TestLeaseKeysFollowTheNamespace pins which later operations revoke a
// lease granted on a handle after its file moved: those on the file's
// current path, or through another handle on the same file, and none on
// a path the file no longer has. The expectations are what a lookup of
// the named inode would revoke.
func TestLeaseKeysFollowTheNamespace(t *testing.T) {
	data := bytes.Repeat([]byte{0x2a}, 4096)
	type world struct {
		srv          *server.Server
		holder, peer *server.Client
	}
	newWorld := func(t *testing.T) world {
		srv := server.New(newBackend(t, "splitfs-strict"), server.Config{})
		t.Cleanup(func() { srv.Close() })
		holder, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
		if err != nil {
			t.Fatal(err)
		}
		return world{srv, holder, peer}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	open := func(t *testing.T, c *server.Client, p string, flag int) vfs.File {
		t.Helper()
		f, err := c.OpenFile(p, flag, 0o644)
		must(t, err)
		return f
	}
	// lease reads through h, which leases it if it holds no live lease.
	lease := func(t *testing.T, h vfs.File) {
		t.Helper()
		_, err := h.ReadAt(make([]byte, 512), 0)
		must(t, err)
	}
	expect := func(t *testing.T, w world, active int64, after string) {
		t.Helper()
		if n := w.srv.ActiveLeases(); n != active {
			t.Fatalf("after %s: %d leases outstanding, want %d", after, n, active)
		}
	}
	// Each case opens a peer writer handle and a holder handle on the
	// file at from, moves the file with move, leases the holder's handle
	// at the file's new path at, and runs stale — operations on a path the
	// file no longer has, none of which may revoke the lease — before the
	// trigger, which must.
	staleOps := func(p string) func(t *testing.T, w world) {
		return func(t *testing.T, w world) {
			g := open(t, w.peer, p, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC)
			_, err := g.WriteAt(data, 0)
			must(t, err)
			must(t, g.Truncate(100))
			must(t, g.Close())
			must(t, w.peer.Rename(p, p+".moved"))
			must(t, w.peer.Unlink(p+".moved"))
			expect(t, w, 1, "operations on the stale path "+p)
		}
	}
	cases := []struct {
		name, from, at string
		move           func(world) error
		stale          func(t *testing.T, w world)
	}{
		{"file renamed", "/a", "/b",
			func(w world) error { return w.peer.Rename("/a", "/b") },
			staleOps("/a")},
		{"parent renamed", "/d/a", "/e/a",
			func(w world) error { return w.peer.Rename("/d", "/e") },
			func(t *testing.T, w world) {
				must(t, w.peer.Mkdir("/d", 0o755))
				staleOps("/d/a")(t, w)
			}},
	}
	triggers := []struct {
		name string
		run  func(w world, at string, writer vfs.File) error
	}{
		{"rename", func(w world, at string, _ vfs.File) error { return w.peer.Rename(at, at+"2") }},
		{"unlink", func(w world, at string, _ vfs.File) error { return w.peer.Unlink(at) }},
		{"truncate", func(_ world, _ string, writer vfs.File) error { return writer.Truncate(0) }},
	}
	for _, c := range cases {
		for _, tr := range triggers {
			t.Run(c.name+"/"+tr.name, func(t *testing.T) {
				w := newWorld(t)
				must(t, w.peer.Mkdir("/d", 0o755))
				must(t, vfs.WriteFile(w.peer, c.from, data))
				// The writer opens first: U-Split serves every handle on
				// a file through the first opener's kernel handle, and a
				// read-only one refuses the truncate.
				writer := open(t, w.peer, c.from, vfs.O_RDWR)
				h := open(t, w.holder, c.from, vfs.O_RDONLY)
				must(t, c.move(w))
				lease(t, h)
				expect(t, w, 1, "the grant")
				c.stale(t, w)
				must(t, tr.run(w, c.at, writer))
				expect(t, w, 0, tr.name+" of the current path")
			})
		}
	}

	t.Run("orphans", func(t *testing.T) {
		w := newWorld(t)
		// Two files, each unlinked while a holder and a writer handle are
		// open on it, the second by a rename onto it.
		must(t, vfs.WriteFile(w.peer, "/u", data))
		must(t, vfs.WriteFile(w.peer, "/v", data))
		must(t, vfs.WriteFile(w.peer, "/r", data))
		wu := open(t, w.peer, "/u", vfs.O_RDWR)
		wv := open(t, w.peer, "/v", vfs.O_RDWR)
		hu := open(t, w.holder, "/u", vfs.O_RDONLY)
		hv := open(t, w.holder, "/v", vfs.O_RDONLY)
		lease(t, hu)
		lease(t, hv)
		expect(t, w, 2, "the grants")
		must(t, w.peer.Unlink("/u"))
		expect(t, w, 1, "unlinking /u")
		must(t, w.peer.Rename("/r", "/v"))
		expect(t, w, 0, "renaming /r onto /v")
		lease(t, hu)
		lease(t, hv)
		expect(t, w, 2, "the grants on the orphans")
		// New files at the names the orphans lost are other inodes.
		for _, p := range []string{"/u", "/v"} {
			g := open(t, w.peer, p, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC)
			must(t, g.Truncate(0))
			must(t, g.Close())
		}
		expect(t, w, 2, "new files at the lost names")
		// A truncate through one handle on an orphan revokes the lease of
		// the other handle on it, and only that one.
		must(t, wu.Truncate(0))
		expect(t, w, 1, "truncating orphan /u")
		must(t, wv.Truncate(0))
		expect(t, w, 0, "truncating orphan /v")
	})
}

// TestRegrantSupersedesSegment: a read handle whose file another tenant
// keeps rewriting re-leases after every rewrite moves the mapping
// epoch, and each grant replaces the handle's segment instead of adding
// one beside it. No revocation is counted or pushed: the holder had
// already dropped the segment it replaced.
func TestRegrantSupersedesSegment(t *testing.T) {
	srv := server.New(newBackend(t, "splitfs-strict"), server.Config{})
	defer srv.Close()
	reader, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x11}, 4096)
	wf, err := writer.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.WriteAt(block, 0); err != nil {
		t.Fatal(err)
	}
	rf, err := reader.OpenFile("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(block))
	const regrants = 20
	for i := range regrants + 1 {
		if i > 0 {
			block[0] = byte(i)
			if _, err := wf.WriteAt(block, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rf.ReadAt(buf, 0); err != nil || buf[0] != block[0] {
			t.Fatalf("read %d: first byte %#x (%v), want %#x", i, buf[0], err, block[0])
		}
	}
	if n := reader.Stats().LeaseGrants; n != regrants+1 {
		t.Fatalf("%d grants, want %d: the rewrites must move the epoch", n, regrants+1)
	}
	if n := srv.ActiveLeases(); n != 1 {
		t.Errorf("ActiveLeases = %d after %d re-grants, want 1", n, regrants)
	}
	if st := srv.Stats(); st.LeaseRevokes != 0 || reader.Stats().LeaseRevocations != 0 {
		t.Errorf("superseded segments counted as revocations: server %d, client %d", st.LeaseRevokes, reader.Stats().LeaseRevocations)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveLeases(); n != 0 {
		t.Errorf("ActiveLeases = %d after the handle closed", n)
	}
}
