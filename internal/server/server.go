package server

import (
	"bufio"
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
	// TokenSalt diversifies re-attach tokens across server generations.
	// A restarted server (the crash campaigns build one per recovery)
	// should use a different salt so a stale token from the previous
	// generation cannot collide with a fresh session's token.
	TokenSalt uint64

	// DisableLeases removes featLeases from the server's advertised
	// feature set: every attach negotiates down to the chunked copy
	// path, as against a pre-lease server. Used by the downgrade tests
	// and available as an operational kill switch.
	DisableLeases bool

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
	byToken  map[uint64]*Session // resumable sessions, keyed by re-attach token
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

	// Zero-copy lease index: inode → segment id → segment, plus the
	// session-side maps (Session.leases) guarded by the same lock. The
	// atomic count gates the revocation hooks in Session.execute so a
	// lease-free server performs no extra work (see lease.go).
	leaseMu sync.Mutex // +lockrank:leasetab
	leases  map[uint64]map[uint64]*leaseSegment
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

// ParkedSessions reports how many resumable sessions currently sit
// parked awaiting re-attach (distinct from the cumulative stat).
func (srv *Server) ParkedSessions() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	n := 0
	for _, s := range srv.sessions {
		s.mu.Lock()
		if s.parked {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// mix64 is the splitmix64 finalizer — the token generator. Tokens are
// credentials only against accidental cross-session confusion (a stale
// client from a previous server generation), not an adversary.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// serverConn is one accepted stream connection (unix socket, net.Pipe).
type serverConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	// rbuf holds the request frame the read loop last read (its
	// goroutine only): execution is done with it before the next read.
	// wbuf assembles reply and push frames, under the replyMu of the
	// session conn serves.
	rbuf, wbuf []byte
}

// New builds a server over fs. The server starts no goroutine of its
// own: a stream connection's requests run on whoever called ServeConn,
// a loopback session's on its caller, so loopback-only servers (the
// crash harness's served: wrapper) stay deterministic.
func New(fs vfs.FileSystem, cfg Config) *Server {
	return &Server{
		fs:       fs,
		cfg:      cfg,
		sessions: make(map[uint64]*Session),
		byToken:  make(map[uint64]*Session),
		conns:    make(map[*serverConn]bool),
		leases:   make(map[uint64]map[uint64]*leaseSegment),
	}
}

// FS returns the served backend.
func (srv *Server) FS() vfs.FileSystem { return srv.fs }

// features is the server's advertised feature set. A backend that is
// not vfs.Mappable still advertises leases: grants simply fail per
// handle and the client caches the refusal.
func (srv *Server) features() uint32 {
	if srv.cfg.DisableLeases {
		return 0
	}
	return featLeases
}

// attach creates a session confined to root ("" or "/" = whole tree).
// A non-root subtree must already exist as a directory. A resumable
// session gets a nonzero re-attach token and survives transport loss by
// parking (see Session.disconnect). feats is the client's requested
// feature set; the session operates under the intersection.
func (srv *Server) attach(root string, conn *serverConn, resumable bool, feats uint32) (*Session, error) {
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
	s := &Session{srv: srv, id: srv.nextSess, root: root, ht: vfs.NewFDTable(), conn: conn, resumable: resumable,
		features: feats & srv.features(), flight: obs.NewRecorder(obs.DefaultFlightSlots)}
	s.gen.Store(1)
	if resumable {
		s.token = mix64(srv.cfg.TokenSalt ^ mix64(s.id))
		if s.token == 0 {
			s.token = 1 // zero means "no token" on the wire
		}
		srv.byToken[s.token] = s
	}
	srv.sessions[s.id] = s
	return s, nil
}

// reattach resolves a live session by token and hands it conn, writing
// the handshake reply atomically with the adoption (see Session.adopt).
// The session may still think it owns its old transport — a client can
// reconnect before the server notices the loss — in which case the
// adoption is a takeover. Any lookup failure reads as errUnknownSession
// so the client falls back to a cold attach — always safe, never
// privileged.
func (srv *Server) reattach(token uint64, conn *serverConn, handshake func(*Session) error) (*Session, error) {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil, errServerClosed
	}
	s := srv.byToken[token]
	srv.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("%w (token unknown)", errUnknownSession)
	}
	if err := s.adopt(conn, func() error { return handshake(s) }); err != nil {
		if errors.Is(err, errUnknownSession) {
			return nil, err
		}
		// The session was adopted but the handshake write failed; hand it
		// back so the caller can re-park it for the next attempt.
		return s, err
	}
	srv.stats.reattached.Add(1)
	return s, nil
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

// reply writes one response frame on the session's current transport;
// the caller holds execMu. An oversized payload (a handler bug —
// handlers bound their replies) degrades to an Rerror so one request
// cannot wedge the connection; an I/O failure kills the connection (the
// read loop then tears the session down or parks it). The connection
// pointer is read under replyMu because park/adopt swap it. A reply that
// is not sent is counted as dropped, so every executed stream request is
// either answered or counted: when the FailReplies hook fires the
// connection is killed instead — the executed-but-unacknowledged window
// of a daemon death, so an acknowledged operation always finished
// executing before the fault point — and a session that parked while the
// request ran (a takeover whose handshake failed) has nowhere to send it.
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
			conn.rwc.Close()
		}
		return
	}
	err := writeFrame(conn.rwc, &conn.wbuf, typ, reqID, payload)
	s.replyMu.Unlock()
	if err != nil {
		conn.rwc.Close()
	}
}

// ServeConn speaks the wire protocol over one stream connection. The
// first frame must be Tattach (optionally marking the session
// resumable) or Treattach (adopting a parked session by token);
// afterwards each frame is executed and answered here, on the goroutine
// that read it (Session.serve), before the next is read. ServeConn
// blocks until the connection fails or closes. A plain session is
// always left torn down (every handle closed) — the mid-operation
// disconnect guarantee; a resumable one parks instead, holding its
// handles and reply cache for the client's re-attach.
func (srv *Server) ServeConn(rwc io.ReadWriteCloser) error {
	conn := &serverConn{rwc: rwc, br: bufio.NewReaderSize(rwc, 64<<10)}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		rwc.Close()
		return errServerClosed
	}
	srv.conns[conn] = true
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		rwc.Close()
	}()

	typ, reqID, payload, err := readFrame(conn.br, nil)
	if err != nil {
		return fmt.Errorf("server: attach read: %w", err)
	}
	// refuse answers a handshake the server turns down — unless it is
	// turning it down because Close got in first: Close drops every
	// connection without a word, and a handshake that raced it is one
	// more of them. The client then sees a lost transport, which a
	// resumable one retries against the next generation, not a refusal,
	// which it would take as final.
	refuse := func(err error) error {
		if !errors.Is(err, errServerClosed) {
			etyp, eid, ep := encodeError(reqID, err)
			writeFrame(rwc, nil, etyp, eid, ep)
		}
		return err
	}
	var s *Session
	d := dec{b: payload}
	switch typ {
	case tAttach:
		// Payload: root string, then an optional resumable flag byte,
		// then an optional requested-feature bitmap (each absent in
		// older protocol revisions — old clients decode fine, and their
		// missing fields read as zero: not resumable, no features).
		root := d.str()
		resumable := len(d.b) > 0 && d.u8() == 1
		var feats uint32
		if len(d.b) >= 4 {
			feats = d.u32()
		}
		if d.err != nil {
			return fmt.Errorf("server: malformed Tattach: %w", d.err)
		}
		s, err = srv.attach(root, conn, resumable, feats)
		if err != nil {
			return refuse(err)
		}
		var e enc
		e.str(srv.fs.Name())
		e.u64(s.id)
		e.u64(s.token)
		e.u32(s.features) // agreed set; old clients ignore trailing bytes
		if werr := writeFrame(rwc, nil, rAttach, reqID, e.b); werr != nil {
			s.teardown()
			return werr
		}
	case tReattach:
		token := d.u64()
		if d.err != nil {
			return fmt.Errorf("server: malformed Treattach: %w", d.err)
		}
		s, err = srv.reattach(token, conn, func(s *Session) error {
			var e enc
			e.str(srv.fs.Name())
			// The agreed feature set was fixed at the original attach;
			// echo it so a resumed client restores the same mode.
			// (features is immutable after attach — no lock needed.)
			e.u32(s.features)
			return writeFrame(rwc, nil, rReattach, reqID, e.b)
		})
		if err != nil {
			if s != nil {
				s.disconnect(conn, err) // adopted, handshake write failed: re-park
				return err
			}
			return refuse(err)
		}
	default:
		writeFrame(rwc, nil, rError, reqID, encodeAttachError(fmt.Errorf("expected Tattach or Treattach, got %s", msgName(typ))))
		return fmt.Errorf("%w: first frame %s, want Tattach or Treattach", errBadHandshake, msgName(typ))
	}

	for {
		typ, reqID, payload, err := readFrame(conn.br, &conn.rbuf)
		if err != nil {
			s.disconnect(conn, err)
			if err == io.EOF {
				return nil
			}
			return err
		}
		// A frame the session no longer takes from this connection —
		// superseded by a takeover re-attach, or sent behind a Tdetach,
		// as a client's advisory TrevokeAck can be — is dropped
		// unanswered. The loop still ends only when the connection does:
		// hanging up here could overtake the Rdetach on its way to a
		// client that is still writing.
		s.serve(conn, typ, reqID, payload, nil)
	}
}

func encodeAttachError(err error) []byte {
	var e enc
	e.u32(uint32(codeGeneric))
	e.str(err.Error())
	return e.b
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
	sess := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sess = append(sess, s)
	}
	srv.mu.Unlock()

	// Closing the connections first unblocks every read loop — and any
	// reply blocked on a client that stopped reading, which would
	// otherwise hold its session's executor lock against the teardown.
	// Tearing every session down directly (not via the read loops) also
	// covers loopback sessions and parked ones, which have no connection
	// to close.
	for _, c := range conns {
		c.rwc.Close()
	}
	for _, s := range sess {
		s.teardown()
	}
	return nil
}
