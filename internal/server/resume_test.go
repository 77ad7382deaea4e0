package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splitfs/internal/vfs"
)

// countingFS counts successful applications of the non-idempotent
// namespace operations, so the exactly-once tests can prove a replayed
// request's effect did not land twice. (A replayed rename whose source
// is already gone still reaches the backend and fails there before the
// session layer heals it — an attempt, not a second application.)
type countingFS struct {
	vfs.FileSystem
	renames atomic.Int64
	unlinks atomic.Int64
	mkdirs  atomic.Int64
}

func (c *countingFS) Rename(oldPath, newPath string) error {
	err := c.FileSystem.Rename(oldPath, newPath)
	if err == nil {
		c.renames.Add(1)
	}
	return err
}

func (c *countingFS) Unlink(path string) error {
	err := c.FileSystem.Unlink(path)
	if err == nil {
		c.unlinks.Add(1)
	}
	return err
}

func (c *countingFS) Mkdir(path string, perm uint32) error {
	err := c.FileSystem.Mkdir(path, perm)
	if err == nil {
		c.mkdirs.Add(1)
	}
	return err
}

// resumeHarness wires a resumable client to a restartable server: the
// redial callback always connects to the current server, waiting (after
// the first dial) until the session has parked so a warm re-attach
// cannot race the server's own detection of the loss.
type resumeHarness struct {
	mu  sync.Mutex
	srv *Server

	dials    atomic.Int64
	waitPark atomic.Bool
}

func (h *resumeHarness) current() *Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv
}

func (h *resumeHarness) swap(srv *Server) {
	h.mu.Lock()
	h.srv = srv
	h.mu.Unlock()
}

func (h *resumeHarness) redial() (io.ReadWriteCloser, error) {
	if h.dials.Add(1) > 1 && h.waitPark.Load() {
		if err := awaitPark(h.current()); err != nil {
			return nil, err
		}
	}
	cs, ss := net.Pipe()
	go h.current().ServeConn(ss)
	return cs, nil
}

// awaitPark waits until one of srv's sessions has parked, for at most
// ten seconds; when none does, it fails the dial naming every session
// and what became of it, instead of hanging the package until the test
// timeout.
func awaitPark(srv *Server) error {
	for deadline := time.Now().Add(10 * time.Second); srv.MetricsSnapshot(false).Parked == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			var never []string
			for _, s := range srv.MetricsSnapshot(true).PerSess {
				never = append(never, fmt.Sprintf("session %d (root %s) is still attached", s.ID, s.Root))
			}
			srv.mu.Lock()
			for _, r := range srv.retired {
				never = append(never, fmt.Sprintf("session %d (root %s) was torn down", r.id, r.root))
			}
			srv.mu.Unlock()
			return fmt.Errorf("no session parked within 10s: %s", strings.Join(never, "; "))
		}
	}
	return nil
}

// A reply dropped by a daemon-death fault (executed, never
// acknowledged) must not re-execute when the client replays it: the
// reply cache answers, and the operation applies exactly once.
func TestWarmResumeExactlyOnce(t *testing.T) {
	backend := &countingFS{FileSystem: faultBackend(t)}
	var failNext atomic.Bool
	srv := New(backend, Config{
		FailReplies: func() bool { return failNext.CompareAndSwap(true, false) },
	})
	defer srv.Close()
	h := &resumeHarness{srv: srv}
	h.waitPark.Store(true)

	c, err := DialResumableConfig(h.redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile("/d/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}

	// Rename with the reply dropped: executed server-side, never acked.
	failNext.Store(true)
	if err := c.Rename("/d/f", "/d/g"); err != nil {
		t.Fatalf("rename across dropped reply: %v", err)
	}
	if n := backend.renames.Load(); n != 1 {
		t.Fatalf("rename executed %d times, want exactly once", n)
	}
	st := srv.Stats()
	if st.DroppedReplies != 1 || st.Reattached != 1 || st.ReplayCacheHits != 1 {
		t.Fatalf("stats after warm resume: %+v", st)
	}

	// Unlink with the reply dropped, same guarantee.
	failNext.Store(true)
	if err := c.Unlink("/d/g"); err != nil {
		t.Fatalf("unlink across dropped reply: %v", err)
	}
	if n := backend.unlinks.Load(); n != 1 {
		t.Fatalf("unlink executed %d times, want exactly once", n)
	}
	if _, err := c.Stat("/d/g"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat unlinked file: %v", err)
	}

	// A positional append with the reply dropped must not double-apply.
	g, err := c.OpenFile("/d/log", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("aaaa"), 0); err != nil {
		t.Fatal(err)
	}
	failNext.Store(true)
	if _, err := g.WriteAt([]byte("bbbb"), 4); err != nil {
		t.Fatalf("append across dropped reply: %v", err)
	}
	fi, err := g.Stat()
	if err != nil || fi.Size != 8 {
		t.Fatalf("appended file size %d (%v), want 8", fi.Size, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// Killing the server entirely (the parked session dies with it) forces
// the cold path: a fresh attach, handle re-establishment at original
// IDs via Treopen, and an in-order replay of the tail since the last
// barrier — with heals absorbing operations the backend already holds.
func TestColdResumeAfterRestart(t *testing.T) {
	backend := &countingFS{FileSystem: faultBackend(t)}
	srv1 := New(backend, Config{})
	h := &resumeHarness{srv: srv1}

	c, err := DialResumableConfig(h.redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f1, err := c.OpenFile("/d/f1", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err) // barrier: everything above leaves the replay log
	}
	// Post-barrier tail: a new file, writes on both handles, a rename.
	f2, err := c.OpenFile("/d/f2", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.WriteAt([]byte("world"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.WriteAt([]byte("HELLO"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d/f1", "/d/f1r"); err != nil {
		t.Fatal(err)
	}

	// The daemon dies. The backend survives (it is the recovered file
	// system); every acked operation above is still applied in it.
	srv1.Close()
	srv2 := New(backend, Config{})
	defer srv2.Close()
	h.swap(srv2)

	// The next operation discovers the loss, cold-attaches to the new
	// generation, reopens f1 (pre-barrier, now under its renamed name)
	// and f2 (converted inline from its logged open), and replays the
	// tail. The rename already applied, so its replay must heal.
	if _, err := f2.WriteAt([]byte("WORLD"), 0); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if renames := backend.renames.Load(); renames != 1 {
		t.Fatalf("rename executed %d times across restart, want exactly once", renames)
	}
	if st := srv2.Stats(); st.HealedReplays == 0 {
		t.Fatalf("expected healed replays on the new generation: %+v", st)
	}
	fi, err := c.Stat("/d/f1r")
	if err != nil || fi.Size != 5 {
		t.Fatalf("renamed file after cold resume: %+v, %v", fi, err)
	}
	if _, err := c.Stat("/d/f1"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name still present after cold resume: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := f2.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, []byte("WORLD")) {
		t.Fatalf("f2 content after cold resume: %q, %v", buf, err)
	}
	buf = make([]byte, 5)
	if _, err := f1.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, []byte("HELLO")) {
		t.Fatalf("f1 content after cold resume: %q, %v", buf, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A handle closed after the last barrier is still re-established by a
// cold resume — its logged writes replay through it — so its reopen
// chain must keep following renames after the close. With the chain
// stuck at the stale name, Treopen finds nothing there, recreates the
// file empty, and the replayed rename replaces the real file with it:
// every byte written before the barrier reads as zero.
func TestColdResumeClosedHandleFollowsRename(t *testing.T) {
	backend := faultBackend(t)
	srv1 := New(backend, Config{})
	h := &resumeHarness{srv: srv1}

	c, err := DialResumableConfig(h.redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile("/a", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("before-barrier!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("after"), 15); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}

	// The daemon dies; the backend holds every acked operation above.
	srv1.Close()
	srv2 := New(backend, Config{})
	defer srv2.Close()
	h.swap(srv2)

	if err := c.SyncAll(); err != nil {
		t.Fatalf("sync after restart: %v", err)
	}
	got, err := vfs.ReadFile(c, "/b")
	if err != nil || string(got) != "before-barrier!after" {
		t.Fatalf("/b after cold resume = %q, %v; want all 20 bytes", got, err)
	}
	if _, err := c.Stat("/a"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stale name /a after cold resume: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A cold resume restores no offset: the File keeps its own, and every
// write carries it, so the writes replayed after a daemon restart land
// where they first did. A handle that wrote through its offset on both
// sides of a barrier reads on, after the restart, from where a direct
// ext4-dax handle does, and the file holds every byte once.
func TestColdResumeKeepsHandleOffset(t *testing.T) {
	run := func(fs vfs.FileSystem, barrier func(vfs.File) error, restart func()) string {
		var sb strings.Builder
		log := func(step string, err error) { fmt.Fprintf(&sb, "%s: %v\n", step, err) }
		f, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Write([]byte("before the barrier|"))
		log(fmt.Sprintf("write %d bytes", n), err)
		log("barrier", barrier(f))
		n, err = f.Write([]byte("after it|"))
		log(fmt.Sprintf("write %d bytes", n), err)
		pos, err := f.Seek(-3, vfs.SeekCur)
		log(fmt.Sprintf("seek back to %d", pos), err)
		n, err = f.Write([]byte("S TAIL|"))
		log(fmt.Sprintf("write %d bytes", n), err)
		restart()
		pos, err = f.Seek(0, vfs.SeekCur)
		log(fmt.Sprintf("offset %d", pos), err)
		buf := make([]byte, 64)
		n, err = f.Read(buf)
		log(fmt.Sprintf("read %d bytes at the offset", n), err)
		n, err = f.Write([]byte("resumed"))
		log(fmt.Sprintf("write %d bytes", n), err)
		n, err = f.ReadAt(buf, 0)
		log(fmt.Sprintf("file reads %q", buf[:n]), err)
		fi, err := fs.Stat("/f")
		log(fmt.Sprintf("size %d", fi.Size), err)
		log("close", f.Close())
		return sb.String()
	}
	want := run(faultBackend(t), vfs.File.Sync, func() {})

	backend := faultBackend(t)
	srv1 := New(backend, Config{})
	h := &resumeHarness{srv: srv1}
	c, err := DialResumableConfig(h.redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	var srv2 *Server
	got := run(c, func(vfs.File) error { return c.SyncAll() }, func() {
		// The daemon dies; the backend holds every acked write above.
		srv1.Close()
		srv2 = New(backend, Config{})
		h.swap(srv2)
	})
	defer srv2.Close()
	if got != want {
		t.Fatalf("served across a cold resume:\n%swant (direct ext4-dax):\n%s", got, want)
	}
	if st := srv2.Stats(); st.ReplayedRequests == 0 {
		t.Fatalf("the restart replayed nothing: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A restarted daemon must not hand a stale client another tenant's
// session. Two server generations are built with Config{}, as
// cmd/splitfsd builds its one: tenant /b attaches first on the second,
// so it holds the session id /a held on the first, and /a's resume then
// presents its generation-1 token. /a must get a fresh session of its
// own, and its mkdir must land in /a, not in /b.
func TestStaleTokenCannotAdoptAnotherTenant(t *testing.T) {
	backend := faultBackend(t)
	for _, d := range []string{"/a", "/b"} {
		if err := backend.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	srv1 := New(backend, Config{})
	h := &resumeHarness{srv: srv1}
	a, err := DialResumableConfig(h.redial, ClientConfig{Root: "/a"})
	if err != nil {
		t.Fatal(err)
	}
	stale := a.rs.token

	srv1.Close()
	srv2 := New(backend, Config{})
	defer srv2.Close()
	h.swap(srv2)
	b, err := DialResumableConfig(h.redial, ClientConfig{Root: "/b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Mkdir("/m", 0o755); err != nil {
		t.Fatalf("mkdir after restart: %v", err)
	}
	if _, err := backend.Stat("/b/m"); err == nil {
		t.Fatal("tenant /a's mkdir landed in /b: its stale token adopted /b's session")
	}
	if _, err := backend.Stat("/a/m"); err != nil {
		t.Fatalf("tenant /a's mkdir: %v", err)
	}
	if b.rs.token == stale {
		t.Fatalf("generation 2 minted /b the token /a held on generation 1 (%#x)", stale)
	}
	if a.rs.token == stale || a.rs.token == b.rs.token {
		t.Fatalf("/a resumed with token %#x (stale %#x, /b's %#x), want a fresh one", a.rs.token, stale, b.rs.token)
	}
	if st := srv2.Stats(); st.Reattached != 0 || srv2.SessionCount() != 2 {
		t.Fatalf("generation 2: %d sessions, stats %+v; want two fresh sessions", srv2.SessionCount(), st)
	}
	for _, c := range []*Client{a, b} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// wedgedConn fails writes once armed but never closes the underlying
// pipe, so the server cannot notice the loss: the client's re-attach
// arrives while the server still believes the old transport is alive.
type wedgedConn struct {
	inner io.ReadWriteCloser
	fail  atomic.Bool
}

func (c *wedgedConn) Read(p []byte) (int, error) { return c.inner.Read(p) }

func (c *wedgedConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("transport wedged")
	}
	return c.inner.Write(p)
}

func (c *wedgedConn) Close() error { return nil } // the pipe stays open

// A client that reconnects before the server's read loop notices the old
// transport died must take the session over — not bounce to a cold
// attach that leaks the old session — and the superseded read loop's
// eventual failure must not park over the adopted transport or count as
// a disconnect.
func TestWarmResumeTakeover(t *testing.T) {
	backend := &countingFS{FileSystem: faultBackend(t)}
	srv := New(backend, Config{})
	defer srv.Close()
	h := &resumeHarness{srv: srv}

	var wedged *wedgedConn
	var mu sync.Mutex
	redial := func() (io.ReadWriteCloser, error) {
		rwc, err := h.redial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if wedged == nil {
			wedged = &wedgedConn{inner: rwc}
			return wedged, nil
		}
		return rwc, nil
	}
	c, err := DialResumableConfig(redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// The client's next write dies, but the server-side read loop stays
	// blocked on the still-open pipe: the re-attach races ahead of the
	// server's own loss detection and must take the session over.
	wedged.fail.Store(true)
	if err := c.Mkdir("/d2", 0o755); err != nil {
		t.Fatalf("mkdir across wedged transport: %v", err)
	}
	if n := backend.mkdirs.Load(); n != 2 {
		t.Fatalf("mkdir executed %d times, want 2", n)
	}
	st := srv.Stats()
	if st.Reattached != 1 || st.ParkedSessions != 0 {
		t.Fatalf("takeover stats: %+v", st)
	}
	if st.TornDisconnects != 0 || st.OtherDisconnects != 0 {
		t.Fatalf("superseded loop counted as a disconnect: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("takeover leaked a session: %d live", srv.SessionCount())
	}
}

// gatedFS records every Mkdir attempt by path and holds the Mkdir of
// "/w" at a gate until release closes.
type gatedFS struct {
	vfs.FileSystem
	entered, release chan struct{}

	mu    sync.Mutex
	calls map[string]int
}

func (g *gatedFS) Mkdir(path string, perm uint32) error {
	g.mu.Lock()
	g.calls[path]++
	g.mu.Unlock()
	if path == "/w" {
		close(g.entered)
		<-g.release
	}
	return g.FileSystem.Mkdir(path, perm)
}

// A connection superseded by a takeover re-attach executes nothing more:
// a request still sitting in its read buffer is the client's to replay on
// the new connection, and running the stale copy as well — behind the
// replay, where the reply cache is not consulted — would apply it twice.
// W is held inside the backend with X buffered behind it on the first
// connection; the client re-attaches on a second one and replays X. X
// must reach the backend once, and as the replay (a cache hit would mean
// the stale copy ran first).
func TestSupersededConnExecutesNothing(t *testing.T) {
	backend := &gatedFS{FileSystem: faultBackend(t), calls: map[string]int{},
		entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(backend, Config{})
	defer srv.Close()
	// A unix socket buffers, so two frames sent in one write arrive in
	// one read and both sit in the server's bufio.
	ln, err := net.Listen("unix", t.TempDir()+"/s.sock")
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	defer ln.Close()
	// dial also returns a channel closed once the server's read loop for
	// the connection has returned.
	dial := func() (net.Conn, *bufio.Reader, <-chan struct{}) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if ss, err := ln.Accept(); err == nil {
				srv.ServeConn(ss)
			}
		}()
		cs, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return cs, bufio.NewReader(cs), done
	}
	mkdir := func(path string) []byte {
		var e enc
		e.u32(0o755)
		e.str(path)
		return e.b
	}

	c1, br1, loop1 := dial()
	defer c1.Close()
	_, token, err := attachExchange(c1, br1, 0, "/", true)
	if err != nil {
		t.Fatal(err)
	}
	var wx bytes.Buffer
	writeFrame(&wx, nil, tMkdir, 1, mkdir("/w"))
	writeFrame(&wx, nil, tMkdir, 2, mkdir("/x"))
	if _, err := c1.Write(wx.Bytes()); err != nil {
		t.Fatal(err)
	}
	<-backend.entered

	c2, br2, _ := dial()
	defer c2.Close()
	if _, got, err := attachExchange(c2, br2, token, "/", true); err != nil || got != token {
		t.Fatalf("takeover re-attach: token %#x, want %#x (%v)", got, token, err)
	}
	if err := writeFrame(c2, nil, tMkdir|flagReplay, 2, mkdir("/x")); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	for { // W's reply lands on the adopted connection too; skip it
		rtyp, rid, rp, err := readFrame(br2, nil)
		if err != nil {
			t.Fatalf("reading the replay's reply: %v", err)
		}
		if rid != 2 {
			continue
		}
		if rtyp != rMkdir {
			t.Fatalf("replayed mkdir answered %s: %v", msgName(rtyp), decodeError(rp))
		}
		break
	}
	<-loop1 // the superseded loop is done with whatever it had buffered

	backend.mu.Lock()
	w, x := backend.calls["/w"], backend.calls["/x"]
	backend.mu.Unlock()
	if w != 1 || x != 1 {
		t.Fatalf("backend saw mkdir /w %d times and /x %d times, want once each", w, x)
	}
	if st := srv.Stats(); st.ReplayedRequests != 1 || st.ReplayCacheHits != 0 {
		t.Fatalf("the stale copy of X ran ahead of its replay: %+v", st)
	}
}

// slowCloseConn announces each Close call and then holds it until the
// gate opens — the instant between Server.Close marking the server
// closed and the connection actually going down, held open.
type slowCloseConn struct {
	net.Conn
	closing chan struct{}
	gate    chan struct{}
}

func (c *slowCloseConn) Close() error {
	c.closing <- struct{}{}
	<-c.gate
	return c.Conn.Close()
}

// A Tattach that loses the race with Server.Close must look like the
// transport loss it is about to become, not like a refusal: the
// resumable client retries the first against the next generation and
// gives up on the second (the served crash sweep lost a whole tenant
// this way when its first dial was slower than another tenant's crash).
func TestAttachRacingCloseIsATransportLoss(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	cs, ss := net.Pipe()
	held := &slowCloseConn{Conn: ss, closing: make(chan struct{}), gate: make(chan struct{})}
	go srv.ServeConn(held) // registers, then waits for the first frame
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	go srv.Close()
	<-held.closing // the server is closed; the connection is not, yet

	errc := make(chan error, 1)
	go func() {
		_, _, err := attachExchange(cs, bufio.NewReader(cs), 0, "/", true)
		errc <- err
	}()
	<-held.closing // ServeConn is done with the handshake and hanging up
	close(held.gate)
	if err := <-errc; !errors.Is(err, errConnLost) {
		t.Fatalf("attach racing Close = %v, want a lost connection", err)
	}
}

// A torn transport (FaultConn cut) under a resumable client must be
// invisible to the caller: the op that lost its reply completes on the
// re-attached session, exactly once.
func TestWarmResumeAcrossTornFrame(t *testing.T) {
	backend := &countingFS{FileSystem: faultBackend(t)}
	srv := New(backend, Config{})
	defer srv.Close()
	h := &resumeHarness{srv: srv}
	h.waitPark.Store(true)

	var fc *FaultConn
	var fcMu sync.Mutex
	redial := func() (io.ReadWriteCloser, error) {
		rwc, err := h.redial()
		if err != nil {
			return nil, err
		}
		fcMu.Lock()
		fc = NewFaultConn(rwc)
		rwc = fc
		fcMu.Unlock()
		return rwc, nil
	}
	c, err := DialResumableConfig(redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fcMu.Lock()
	fc.CutWriteAfter(3) // the next request dies inside its frame header
	fcMu.Unlock()
	if err := c.Mkdir("/d2", 0o755); err != nil {
		t.Fatalf("mkdir across torn frame: %v", err)
	}
	if n := backend.mkdirs.Load(); n != 2 {
		t.Fatalf("mkdir executed %d times, want 2", n)
	}
	fi, err := c.Stat("/d2")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat after torn-frame resume: %+v, %v", fi, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
