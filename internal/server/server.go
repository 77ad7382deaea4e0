package server

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"splitfs/internal/obs"
	"splitfs/internal/vfs"
)

// Config sizes the service.
type Config struct {
	// FailReplies, when set, is consulted before every reply frame is
	// written; returning true makes the server close the connection
	// instead of replying — the executed-but-unacknowledged window a real
	// daemon death creates. The crash campaigns key this on the simulated
	// device's CrashFired, so an operation is only ever acknowledged if
	// it completed before the durable image froze (the SetFenceFilter
	// pattern applied to the wire).
	FailReplies func() bool

	// OpClock, when set, is sampled before and after every executed
	// request; the delta is the op's cost in the session's cost
	// histogram and flight records. Deterministic contexts feed the sim
	// clock here (stack.Serve does it automatically), so op costs
	// — and the metric snapshots built from them — are exact functions
	// of the workload; cmd/splitfsd feeds the wall clock, which is fine
	// outside the deterministic set.
	OpClock func() int64

	// OpFences, when set, is sampled alongside OpClock; the delta is
	// the op's fence count in its flight record (the pmem device's
	// cumulative fence counter in deterministic contexts).
	OpFences func() int64
}

// wireStats is the server-side transport/replay counter set.
type wireStats struct {
	cleanCloses      atomic.Int64
	tornDisconnects  atomic.Int64
	otherDisconnects atomic.Int64
	parkedSessions   atomic.Int64
	reattached       atomic.Int64
	replayedRequests atomic.Int64
	replayCacheHits  atomic.Int64
	healedReplays    atomic.Int64
	droppedReplies   atomic.Int64
	leaseGrants      atomic.Int64
	leaseRevokes     atomic.Int64
	revokeAcks       atomic.Int64
}

// WireStats is a snapshot of the server's transport and replay counters:
// how connections ended (clean close at a frame boundary vs. torn
// mid-frame vs. other transport errors), how many resumable sessions
// parked and re-attached, and how replayed requests resolved (served
// from the exactly-once cache, executed fresh, healed).
type WireStats struct {
	CleanCloses      int64
	TornDisconnects  int64
	OtherDisconnects int64
	ParkedSessions   int64 // cumulative park events
	Reattached       int64
	ReplayedRequests int64
	ReplayCacheHits  int64
	HealedReplays    int64
	DroppedReplies   int64 // executed, never sent: FailReplies fired or the session had parked
	LeaseGrants      int64 // zero-copy leases granted
	LeaseRevokes     int64 // leases revoked (teardown included)
	RevokeAcks       int64 // client Trevokeack frames received
}

// Server multiplexes client sessions onto one vfs.FileSystem. The
// backend must be safe for concurrent use (every backend in this
// repository is, since the PR 1 lock decomposition); the server adds no
// global lock of its own — each session's requests run on the goroutine
// that read them (Session.serve), so distinct sessions proceed in
// parallel, meeting at the backend's own fine-grained locks and at
// ext4dax group commit.
type Server struct {
	fs  vfs.FileSystem
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*Session
	byToken  map[uint64]*Session // resumable sessions, keyed by resume token
	nextSess uint64
	conns    map[*serverConn]bool
	closed   bool

	stats wireStats

	// Observability plane (metrics.go): detached sessions fold their
	// metric blocks here so server-wide totals are exact across churn,
	// and their flight recorders park in the retired ring for
	// post-teardown dumps (guarded by mu).
	retiredObs sessionObs
	retired    []retiredFlight

	// Name table (names.go): one row per open handle, holding the key
	// its file is known by and the lease granted on it. orphans counts
	// the orphan keys issued, parked the closed read-only handles' files.
	// The atomic count of outstanding leases gates the revocation hooks
	// in Session.execute (see lease.go).
	nameMu  sync.Mutex // +lockrank:nametab
	names   map[handleRef]nameEntry
	orphans uint64
	parked  []parkedFile
	nLeases atomic.Int64
}

// Stats snapshots the transport/replay counters.
func (srv *Server) Stats() WireStats {
	return WireStats{
		CleanCloses:      srv.stats.cleanCloses.Load(),
		TornDisconnects:  srv.stats.tornDisconnects.Load(),
		OtherDisconnects: srv.stats.otherDisconnects.Load(),
		ParkedSessions:   srv.stats.parkedSessions.Load(),
		Reattached:       srv.stats.reattached.Load(),
		ReplayedRequests: srv.stats.replayedRequests.Load(),
		ReplayCacheHits:  srv.stats.replayCacheHits.Load(),
		HealedReplays:    srv.stats.healedReplays.Load(),
		DroppedReplies:   srv.stats.droppedReplies.Load(),
		LeaseGrants:      srv.stats.leaseGrants.Load(),
		LeaseRevokes:     srv.stats.leaseRevokes.Load(),
		RevokeAcks:       srv.stats.revokeAcks.Load(),
	}
}

// serverConn is one stream connection — a socket or net.Pipe that
// ServeConn reads, or an in-process Pipe — and the session its handshake
// attached.
type serverConn struct {
	srv *Server
	w   io.WriteCloser // replies and pushes go here; Close hangs up
	s   *Session       // nil until the handshake attaches one
	// wbuf assembles reply and push frames, under the replyMu of the
	// session conn serves.
	wbuf []byte
}

// New builds a server over fs. The server starts no goroutine of its
// own: a connection's requests run on whoever called ServeConn, or on
// the goroutine writing them into a Pipe, so servers reached only
// through Pipes (the crash harness's served: wrapper, the daemon-death
// campaigns) stay deterministic.
func New(fs vfs.FileSystem, cfg Config) *Server {
	return &Server{
		fs:       fs,
		cfg:      cfg,
		sessions: make(map[uint64]*Session),
		byToken:  make(map[uint64]*Session),
		conns:    make(map[*serverConn]bool),
		names:    make(map[handleRef]nameEntry),
	}
}

// FS returns the served backend.
func (srv *Server) FS() vfs.FileSystem { return srv.fs }

// attach creates a session confined to root ("" or "/" = whole tree).
// A non-root subtree must already exist as a directory. A resumable
// session gets a resume token of its own (see mintToken) and survives
// transport loss by parking (see Session.disconnect). stale is the
// token the client presented, which the new session's token never
// equals.
func (srv *Server) attach(root string, conn *serverConn, resumable bool, stale uint64) (*Session, error) {
	root = vfs.CleanPath(root)
	if root != "/" {
		fi, err := srv.fs.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", root, err)
		}
		if !fi.IsDir {
			return nil, vfs.WrapPath("attach", root, vfs.ErrNotDir)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, errServerClosed
	}
	srv.nextSess++
	s := &Session{srv: srv, id: srv.nextSess, root: root, ht: vfs.NewFDTable(), conn: conn,
		flight: obs.NewRecorder(obs.DefaultFlightSlots)}
	s.gen.Store(1)
	if resumable {
		s.token = srv.mintToken(stale)
		srv.byToken[s.token] = s
	}
	srv.sessions[s.id] = s
	return s, nil
}

// mintToken draws a resume token: 64 bits from crypto/rand, redrawn
// while it is zero (no token on the wire), names a registered session,
// or equals stale — the client reads an unchanged token as adoption.
// Random tokens are what keep a stale client of an earlier daemon from
// adopting another tenant's session: a counter or a hash of the session
// id would repeat across restarts. The caller holds srv.mu.
func (srv *Server) mintToken(stale uint64) uint64 {
	var b [8]byte
	for {
		rand.Read(b[:])
		t := binary.LittleEndian.Uint64(b[:])
		if t != 0 && t != stale && srv.byToken[t] == nil {
			return t
		}
	}
}

// resumeTarget returns the live session token names, if it was attached
// under root; nil when there is none or the server has closed.
func (srv *Server) resumeTarget(token uint64, root string) *Session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if s := srv.byToken[token]; s != nil && !srv.closed && s.root == vfs.CleanPath(root) {
		return s
	}
	return nil
}

// detach unregisters a session (teardown calls it once).
func (srv *Server) detach(s *Session) {
	srv.mu.Lock()
	delete(srv.sessions, s.id)
	if s.token != 0 {
		delete(srv.byToken, s.token)
	}
	srv.mu.Unlock()
	srv.retireSession(s)
}

// SessionCount reports the live sessions.
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// OpenHandles reports live handles across every session.
func (srv *Server) OpenHandles() int {
	srv.mu.Lock()
	sess := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sess = append(sess, s)
	}
	srv.mu.Unlock()
	n := 0
	for _, s := range sess {
		n += s.ht.Len()
	}
	return n
}

// reply writes one response frame on the session's current transport,
// preceded by the Trevoke pushes queued for it; the caller holds execMu.
// An oversized payload (a handler bug — handlers bound their replies)
// degrades to an Rerror so one request cannot wedge the connection; an
// I/O failure kills the connection (the read loop then tears the session
// down or parks it). The connection pointer is read under replyMu
// because park/adopt swap it. A reply that is not sent is counted as
// dropped, so every executed request is either answered or counted:
// when the FailReplies hook fires the connection is killed instead — the
// executed-but-unacknowledged window of a daemon death, so an
// acknowledged operation always finished executing before the fault
// point, and its pushes die with it — and a session that parked while
// the request ran (a takeover whose handshake failed) has nowhere to
// send it.
func (s *Session) reply(typ uint8, reqID uint32, payload []byte) {
	if len(payload) > maxFrame-frameHeader {
		typ, reqID, payload = encodeError(reqID, fmt.Errorf("server: %s reply exceeds the wire payload bound", msgName(typ)))
	}
	s.replyMu.Lock()
	conn := s.conn
	if fr := s.srv.cfg.FailReplies; conn == nil || (fr != nil && fr()) {
		s.replyMu.Unlock()
		s.srv.stats.droppedReplies.Add(1)
		if conn != nil {
			conn.w.Close()
		}
		return
	}
	var err error
	for _, segID := range s.pushes {
		s.push.b = s.push.b[:0]
		put(tRevoke, &msg{seg: segID}, &s.push)
		if err = writeFrame(conn.w, &conn.wbuf, tRevoke, 0, s.push.b); err != nil {
			break
		}
	}
	s.pushes = s.pushes[:0]
	if err == nil {
		err = writeFrame(conn.w, &conn.wbuf, typ, reqID, payload)
	}
	s.replyMu.Unlock()
	if err != nil {
		conn.w.Close()
	}
}

// ServeConn speaks the wire protocol over one stream connection. The
// first frame must be Tattach (optionally marking the session resumable
// and naming, by token, the session it resumes); afterwards each frame
// is executed and answered here, on the goroutine that read it
// (Session.serve), before the next is read. ServeConn blocks until the
// connection fails or closes. A plain session is always left torn down
// (every handle closed) — the mid-operation disconnect guarantee; a
// resumable one parks instead, holding its handles and reply cache for
// the client's re-attach.
func (srv *Server) ServeConn(rwc io.ReadWriteCloser) error {
	conn, err := srv.openConn(rwc)
	if err != nil {
		rwc.Close()
		return err
	}
	br := bufio.NewReaderSize(rwc, 64<<10)
	var rbuf []byte // the frame last read: step is done with it before the next
	for {
		typ, reqID, payload, err := readFrame(br, &rbuf)
		if err == nil {
			err = conn.step(typ, reqID, payload)
		}
		if err != nil {
			return conn.end(err)
		}
	}
}

// openConn registers a connection whose replies go to w; Close hangs up
// every registered connection.
func (srv *Server) openConn(w io.WriteCloser) (*serverConn, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, errServerClosed
	}
	conn := &serverConn{srv: srv, w: w}
	srv.conns[conn] = true
	return conn, nil
}

// step handles one frame from the connection: the handshake while no
// session is attached, one request after. ServeConn runs it for every
// frame it reads, a Pipe for every frame its writer completes, so the
// two share one dispatch path. A non-nil error ends the connection.
func (conn *serverConn) step(typ uint8, reqID uint32, payload []byte) error {
	if conn.s == nil {
		return conn.handshake(typ, reqID, payload)
	}
	// A frame the session no longer takes from this connection —
	// superseded by a takeover re-attach, or sent behind a Tdetach — is
	// dropped unanswered. The
	// connection still ends only when its stream does: hanging up here
	// could overtake the Rdetach on its way to a client that is still
	// writing.
	conn.s.serve(conn, typ, reqID, payload)
	return nil
}

// end finishes a connection whose stream failed or closed with err: the
// session it carried parks or is torn down (Session.disconnect), and the
// server forgets the connection. A clean close at a frame boundary
// (io.EOF) reads as nil.
func (conn *serverConn) end(err error) error {
	if conn.s != nil {
		conn.s.disconnect(conn, err)
	}
	srv := conn.srv
	srv.mu.Lock()
	delete(srv.conns, conn)
	srv.mu.Unlock()
	conn.w.Close()
	if err == io.EOF {
		return nil
	}
	return err
}

// handshake handles a connection's first frame, which must be Tattach.
// A resumable Tattach naming a live session by token adopts it (warm
// resume); any other attaches a fresh session. Either way the Rattach
// reply carries the session's token — the presented one on adoption, a
// new one otherwise — and the session is the connection's.
func (conn *serverConn) handshake(typ uint8, reqID uint32, payload []byte) error {
	srv := conn.srv
	if typ != tAttach {
		etyp, eid, ep := encodeError(reqID, fmt.Errorf("expected Tattach, got %s", msgName(typ)))
		writeFrame(conn.w, nil, etyp, eid, ep)
		return fmt.Errorf("%w: first frame %s, want Tattach", errBadHandshake, msgName(typ))
	}
	var m msg
	if err := get(tAttach, payload, &m); err != nil {
		return fmt.Errorf("server: malformed Tattach: %w", err)
	}
	reply := func(s *Session) error {
		var e enc
		put(rAttach, &msg{name: srv.fs.Name(), session: s.id, token: s.token}, &e)
		return writeFrame(conn.w, nil, rAttach, reqID, e.b)
	}
	if s := srv.resumeTarget(m.token, m.path); m.resumable && s != nil {
		// The session may still think it owns its old transport — a
		// client can reconnect before the server notices the loss — in
		// which case the adoption is a takeover. The reply is written
		// atomically with it (see Session.adopt); if that write fails,
		// ending the connection re-parks the session.
		adopted, err := s.adopt(conn, func() error { return reply(s) })
		if adopted {
			if err == nil {
				srv.stats.reattached.Add(1)
			}
			conn.s = s
			return err
		}
	}
	s, err := srv.attach(m.path, conn, m.resumable, m.token)
	if err != nil {
		// Answer the refusal — unless Close got in first: Close drops
		// every connection without a word, and a handshake that raced it
		// is one more of them. The client then sees a lost transport,
		// which a resumable one retries against the next generation, not
		// a refusal, which it would take as final.
		if !errors.Is(err, errServerClosed) {
			etyp, eid, ep := encodeError(reqID, err)
			writeFrame(conn.w, nil, etyp, eid, ep)
		}
		return err
	}
	if werr := reply(s); werr != nil {
		s.teardown()
		return werr
	}
	conn.s = s
	return nil
}

// Serve accepts connections from ln until ln or the server closes.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	closed := srv.closed
	srv.mu.Unlock()
	if closed {
		return errServerClosed
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closed := srv.closed
			srv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go srv.ServeConn(c)
	}
}

// Close tears down every session; when it returns every request that
// was executing has finished and been answered or counted as dropped
// (teardown takes each session's executor lock). Safe to call more than
// once.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	conns := make([]*serverConn, 0, len(srv.conns))
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()

	// Closing the connections first unblocks every read loop — and any
	// reply blocked on a client that stopped reading, which would
	// otherwise hold its session's executor lock against the teardown.
	// Tearing every session down directly (not via the read loops) also
	// covers parked sessions, which have no connection to close, and
	// Pipe sessions, whose connection ends only when its client next
	// writes or hangs up. No session attaches once closed is set, and teardown goes
	// in session order, so its handle closes are one sequence run to run.
	for _, c := range conns {
		c.w.Close()
	}
	for _, s := range srv.sessionsByID() {
		s.teardown()
	}
	srv.evict("", true) // every resolved path lies below "": the whole parked set
	return nil
}
