package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"splitfs/internal/obs"
	"splitfs/internal/vfs"
)

// Session is one client's view of the served file system: a confining
// root, a handle table, and an executor lock under which its requests
// run one at a time, in the order they were read, on the goroutine that
// read them (serve), each answered on the session's connection before
// the next runs. Sessions are path-confined — every client path is
// resolved lexically against the session root, so "../.." walks clamp at
// the root instead of escaping it (the gofer confinement rule).
//
// A resumable session additionally survives its transport: on connection
// loss it parks (handles stay open, the reply cache stays warm) until
// the client re-attaches by token, and every reply it renders is cached
// by request ID so a replayed request that already executed is answered
// from the cache instead of executing twice — the exactly-once rule for
// non-idempotent operations (rename, unlink, append, truncate).
type Session struct {
	srv  *Server
	id   uint64
	root string       // cleaned; "/" means the whole tree
	ht   *vfs.FDTable // its descriptors are the wire handle IDs (see fd)

	token uint64 // resume token; 0 for a session that is not resumable

	// features is the agreed feature set from attach-time negotiation
	// (featLeases & co). Immutable after attach.
	features uint32

	// leases holds the session's outstanding lease segments by id,
	// guarded by srv.leaseMu alongside the server's ino index.
	leases map[uint64]*leaseSegment

	// execMu is the executor lock: one request at a time, from the
	// ownership check through the reply, and teardown. It is the
	// outermost lock of the hierarchy (lease.go) — a request takes
	// everything else inside it — and Server.Close closes the connections
	// before it takes it, so a reply stuck on a dead peer cannot hold it
	// against the teardown.
	execMu sync.Mutex // +lockrank:sessexec

	mu     sync.Mutex
	closed bool // torn down; set once, under execMu
	parked bool // transport lost; awaiting re-attach

	// conn is the transport the session answers on: nil while parked.
	// park and adopt write it holding mu and replyMu together, so either
	// lock guards a read.
	conn    *serverConn
	replyMu sync.Mutex // serializes reply and push frames onto conn

	// pushes holds the segment IDs of Trevoke frames queued for the
	// client (pushRevoke); reply writes them ahead of the next reply.
	// Guarded by replyMu.
	pushes []uint64

	replies replyCache // exactly-once reply cache (resumable sessions)

	// out is the reply execute renders, reused request after request
	// under execMu: the reply is written before execMu is released.
	out enc

	// Observability plane (metrics.go): gen counts transport
	// attachments (1 at attach, +1 per adopt), obs is the per-session
	// metric block, flight the last-N-ops ring (nil when disabled).
	gen    atomic.Int64
	obs    sessionObs
	flight *obs.Recorder
}

// replyCacheCap bounds the per-session reply cache. The resumable client
// keeps at most a handful of requests outstanding and truncates its
// replay log at every acknowledged SyncAll barrier, so the window of
// request IDs a replay can present is far smaller than this.
const replyCacheCap = 512

// replyCacheMaxEntry bounds one cached payload; larger replies (big
// sequential reads) are not cached, and a replayed request that misses
// re-executes — safe for every operation the resumable client logs
// (positional I/O and namespace ops), documented as the reason resumable
// clients should prefer positional reads.
const replyCacheMaxEntry = 128 << 10

type cachedReply struct {
	typ     uint8
	payload []byte
}

// replyCache is a bounded FIFO map of request ID → rendered reply.
type replyCache struct {
	mu   sync.Mutex
	m    map[uint32]cachedReply
	fifo []uint32
}

func (c *replyCache) put(id uint32, typ uint8, payload []byte) {
	if len(payload) > replyCacheMaxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[uint32]cachedReply)
	}
	if _, ok := c.m[id]; ok {
		return
	}
	for len(c.fifo) >= replyCacheCap {
		delete(c.m, c.fifo[0])
		c.fifo = c.fifo[1:]
	}
	// Cached payloads are retained beyond the dispatch that built them;
	// copy so no caller-owned buffer is shared.
	c.m[id] = cachedReply{typ: typ, payload: append([]byte(nil), payload...)}
	c.fifo = append(c.fifo, id)
}

func (c *replyCache) get(id uint32) (uint8, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[id]
	return r.typ, r.payload, ok
}

// ID returns the session's identifier.
func (s *Session) ID() uint64 { return s.id }

// Root returns the session's confining root path.
func (s *Session) Root() string { return s.root }

// OpenHandles reports the session's live handle count.
func (s *Session) OpenHandles() int { return s.ht.Len() }

// resolve maps a client path into the session's subtree. CleanPath
// resolves ".." lexically and cannot ascend above "/", so the result
// always stays under root.
func (s *Session) resolve(p string) string {
	c := vfs.CleanPath(p)
	if s.root == "/" {
		return c
	}
	if c == "/" {
		return s.root
	}
	return s.root + c
}

// park detaches the transport but keeps the session alive — handles
// open, reply cache warm — for a later re-attach. from is the connection
// the caller believes it is detaching: if a takeover re-attach already
// swapped in a newer transport, park reports superseded and leaves the
// session alone. Reports parked=false, superseded=false when the session
// cannot park (not resumable, or already closed), in which case the
// caller tears it down instead. Lock order: s.mu, then replyMu — adopt
// holds both across its transition, so park sees either the old or the
// new transport, never a half-installed one.
func (s *Session) park(from *serverConn) (parked, superseded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replyMu.Lock()
	defer s.replyMu.Unlock()
	if from != nil && s.conn != from {
		return false, true
	}
	if s.closed || s.token == 0 {
		return false, false
	}
	s.parked = true
	s.conn = nil
	return true, false
}

// adopt hands a session a new transport. A parked session simply
// resumes; a live one is taken over — the client reconnected before the
// server noticed the old transport die, so the stale connection is
// closed and its read loop's eventual failure reads as superseded (see
// park) instead of parking over the new transport. Only a closed session
// refuses (adopted false), and the handshake attaches a fresh one
// instead. adopt does not wait for the executor: a request the old
// transport's loop is still running finishes under execMu, ahead of
// anything the new transport carries, and answers on whichever transport
// is current by then — so the handshake reply is written while replyMu
// is held, and that frame cannot interleave with it. Whatever else the
// old loop had read is dropped by serve's ownership check. err is the
// handshake reply's write error.
func (s *Session) adopt(conn *serverConn, handshake func() error) (adopted bool, err error) {
	s.mu.Lock()
	s.replyMu.Lock()
	if s.closed {
		s.replyMu.Unlock()
		s.mu.Unlock()
		return false, nil
	}
	s.parked = false
	old := s.conn
	s.conn = conn
	s.gen.Add(1)
	s.mu.Unlock()
	defer s.replyMu.Unlock()
	if old != nil {
		old.w.Close() // kick the superseded read loop off the old transport
	}
	return true, handshake()
}

// disconnect handles a read-loop failure on conn: classify the loss
// (clean peer close at a frame boundary vs. torn mid-frame vs. other),
// then park a resumable session or tear a plain one down. A loop whose
// transport was superseded by a takeover re-attach is a no-op — the
// session already moved on, and the loss it reports was deliberate.
func (s *Session) disconnect(conn *serverConn, err error) {
	srv := s.srv
	parked, superseded := s.park(conn)
	if superseded {
		return
	}
	switch {
	case err == io.EOF:
		srv.stats.cleanCloses.Add(1)
	case errors.Is(err, errTornFrame):
		srv.stats.tornDisconnects.Add(1)
	default:
		srv.stats.otherDisconnects.Add(1)
	}
	if parked {
		srv.stats.parkedSessions.Add(1)
		return
	}
	s.teardown()
}

// teardown closes the session: every handle closed, every lease
// revoked, the session unregistered. It waits out a request that is
// executing, so a handle is never closed underneath an operation.
// Idempotent.
func (s *Session) teardown() {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	s.teardownLocked()
}

// teardownLocked is teardown for a caller that holds execMu — Tdetach,
// which tears down from inside its own request.
func (s *Session) teardownLocked() {
	s.mu.Lock()
	done := s.closed
	s.closed = true
	s.mu.Unlock()
	if done {
		return
	}
	// Leases die with their session: revoke before the handles close so
	// a client still holding a segment observes the flag, not a load
	// against blocks an orphan close is about to free. Server.Close
	// tears every session down, so no lease survives a generation.
	s.srv.revokeSessionLeases(s)
	s.ht.CloseAll()
	s.srv.detach(s)
}

// serve executes one request that arrived on from, on the calling
// goroutine, and answers it, all under the executor lock: requests run
// in the order their connection delivered them and never beside a
// teardown. Nothing runs when the session is closed or from is no longer
// its transport: a takeover re-attach replays whatever the old
// connection had not answered, so a stale copy still buffered there must
// not execute a second time behind the replay.
func (s *Session) serve(from *serverConn, typ uint8, reqID uint32, payload []byte) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	s.mu.Lock()
	owned := !s.closed && s.conn == from
	s.mu.Unlock()
	if !owned {
		return
	}
	rtyp, rp := s.handle(typ, reqID, payload)
	s.reply(rtyp, reqID, rp)
	if cap(s.out.b) > maxPooledCall {
		s.out.b = nil // a chunk-sized read reply: not worth keeping
	}
}

// handle executes one request against the backend and renders the reply
// frame (serve is its only caller).
//
// A request carrying flagReplay is a client re-send after transport
// loss. If the original already executed, its cached reply is returned
// verbatim (exactly-once); otherwise the request executes fresh under
// the replay heal rules (healReplay) — a replayed rename/unlink whose
// source is already gone, or a replayed mkdir that already took effect,
// reads as success, because in-order replay guarantees the only way the
// precondition can be missing is that the original applied durably.
func (s *Session) handle(typ uint8, reqID uint32, payload []byte) (uint8, []byte) {
	replay := typ&flagReplay != 0
	typ &^= flagReplay
	var flags uint8
	if replay {
		flags |= obs.FlagReplay
		s.srv.stats.replayedRequests.Add(1)
		if rtyp, rp, ok := s.replies.get(reqID); ok {
			s.srv.stats.replayCacheHits.Add(1)
			s.observe(typ, reqID, payload, rp, rtyp, flags|obs.FlagCached, 0, 0)
			return rtyp, rp
		}
	}
	cost0, fences0 := s.srv.probe()
	rtyp, _, rp := s.execute(typ, reqID, payload, replay)
	cost1, fences1 := s.srv.probe()
	if s.token != 0 {
		s.replies.put(reqID, rtyp, rp)
	}
	s.observe(typ, reqID, payload, rp, rtyp, flags, cost1-cost0, fences1-fences0)
	return rtyp, rp
}

// healReplay reports whether err, produced by a replayed request of the
// given type, proves the original execution already applied. Sound
// because replay is in-order from the last durable barrier: a replayed
// unlink/rename can only find its source missing if the original ran
// (the syscall that created the source replays first), and a replayed
// mkdir can only collide with itself.
func healReplay(typ uint8, err error) bool {
	switch typ {
	case tMkdir:
		return errors.Is(err, vfs.ErrExist)
	case tUnlink, tRmdir, tRename:
		return errors.Is(err, vfs.ErrNotExist)
	case tClose:
		// The original close freed the handle (or a cold re-attach never
		// re-established a handle that was closed later in the log).
		return errors.Is(err, vfs.ErrBadFD)
	}
	return false
}

// execute runs one decoded request against the backend.
func (s *Session) execute(typ uint8, reqID uint32, payload []byte, replay bool) (uint8, uint32, []byte) {
	d := dec{b: payload}
	e := &s.out
	e.b, e.err = e.b[:0], nil
	var err error
	rtyp := typ + 1 // every T* reply type is the next constant

	switch typ {
	case tDetach:
		// Teardown completes before the Rdetach reply renders, so a
		// client that saw the reply can rely on every handle being
		// closed (and SessionCount reflecting the detach).
		s.teardownLocked()
	case tOpen:
		flag := int(d.u32())
		perm := d.u32()
		path := s.resolve(d.str())
		if d.err == nil {
			// A conflicting writable open (another tenant, or O_TRUNC
			// which frees blocks inside OpenFile) invalidates leases on
			// the target before the open executes.
			if vfs.Writable(flag) {
				s.revokePathLeases(path)
			}
			var f vfs.File
			if f, err = s.srv.fs.OpenFile(path, flag, perm); err == nil {
				e.u64(uint64(s.ht.Insert(f)))
			}
		}
	case tClose:
		id := d.u64()
		if d.err == nil {
			// The backing file may free orphan blocks at last close.
			s.srv.revokeHandleLeases(s, id)
			err = s.ht.Close(fd(id))
		}
	case tRead:
		id := d.u64()
		n := d.u32()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				return e.bytesFrom(capRead(n), f.Read)
			})
		}
	case tWrite:
		id := d.u64()
		data := d.bytes()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				got, werr := f.Write(data)
				if werr != nil {
					return werr
				}
				e.u32(uint32(got))
				return nil
			})
		}
	case tPread:
		id := d.u64()
		off := d.i64()
		n := d.u32()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				return e.bytesFrom(capRead(n), func(p []byte) (int, error) { return f.ReadAt(p, off) })
			})
		}
	case tPwrite:
		id := d.u64()
		off := d.i64()
		data := d.bytes()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				got, werr := f.WriteAt(data, off)
				if werr != nil {
					return werr
				}
				e.u32(uint32(got))
				return nil
			})
		}
	case tSeek:
		id := d.u64()
		off := d.i64()
		whence := int(d.u8())
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				pos, serr := f.Seek(off, whence)
				if serr != nil {
					return serr
				}
				e.i64(pos)
				return nil
			})
		}
	case tTruncate:
		id := d.u64()
		size := d.i64()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				s.revokeFileLeases(f) // truncate frees blocks
				return f.Truncate(size)
			})
		}
	case tFsync:
		id := d.u64()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error { return f.Sync() })
		}
	case tFstat:
		id := d.u64()
		if d.err == nil {
			err = s.withFile(id, func(f vfs.File) error {
				fi, serr := f.Stat()
				if serr != nil {
					return serr
				}
				e.fileInfo(fi)
				return nil
			})
		}
	case tStat:
		path := d.str()
		if d.err == nil {
			var fi vfs.FileInfo
			if fi, err = s.srv.fs.Stat(s.resolve(path)); err == nil {
				e.fileInfo(fi)
			}
		}
	case tReadDir:
		path := d.str()
		if d.err == nil {
			var ents []vfs.DirEntry
			if ents, err = s.srv.fs.ReadDir(s.resolve(path)); err == nil {
				e.u32(uint32(len(ents)))
				for _, de := range ents {
					e.str(de.Name)
					e.u64(de.Ino)
					if de.IsDir {
						e.u8(1)
					} else {
						e.u8(0)
					}
				}
				// An enormous directory must degrade to an error reply,
				// not an oversized frame that would kill the connection.
				if len(e.b) > maxPayload {
					err = fmt.Errorf("server: readdir %s: %d entries exceed the wire payload bound", path, len(ents))
				}
			}
		}
	case tMkdir:
		perm := d.u32()
		path := d.str()
		if d.err == nil {
			err = s.srv.fs.Mkdir(s.resolve(path), perm)
		}
	case tUnlink:
		path := s.resolve(d.str())
		if d.err == nil {
			s.revokePathLeases(path)
			err = s.srv.fs.Unlink(path)
		}
	case tRmdir:
		path := d.str()
		if d.err == nil {
			err = s.srv.fs.Rmdir(s.resolve(path))
		}
	case tRename:
		oldPath := s.resolve(d.str())
		newPath := s.resolve(d.str())
		if d.err == nil {
			// Both ends: the source moves (attribute-cache interplay —
			// a leased path must not serve bytes under a stale name) and
			// a replaced destination is unlinked.
			s.revokePathLeases(oldPath)
			s.revokePathLeases(newPath)
			err = s.srv.fs.Rename(oldPath, newPath)
		}
	case tSyncAll:
		// Group sync, by the rule the crash runner applies directly:
		// the backend's own SyncAll, else this session's live handles.
		err = vfs.SyncAll(s.srv.fs, s.ht.Files())
	case tLease:
		id := d.u64()
		if d.err == nil {
			if s.features&featLeases == 0 {
				err = fmt.Errorf("server: lease: not negotiated: %w", vfs.ErrInval)
			} else {
				err = s.withFile(id, func(f vfs.File) error {
					seg, gerr := s.srv.grantLease(s, id, f)
					if gerr != nil {
						return gerr
					}
					e.u64(seg.id)
					e.u64(seg.epoch)
					e.i64(seg.size)
					e.u32(uint32(len(seg.extents)))
					for _, x := range seg.extents {
						e.i64(x.FileOff)
						e.i64(x.DevOff)
						e.i64(x.Length)
					}
					if len(e.b) > maxPayload {
						// Pathologically fragmented file: refuse rather
						// than render an oversized frame; the client
						// stays on the copy path.
						s.srv.revokeHandleLeases(s, id)
						return fmt.Errorf("server: lease: %d extents exceed the wire payload bound: %w", len(seg.extents), vfs.ErrInval)
					}
					return nil
				})
			}
		}
	case tRevokeAck:
		segID := d.u64()
		if d.err == nil {
			s.srv.ackRevoke(segID)
		}
	case tReopen:
		id := d.u64()
		flag := int(d.u32())
		perm := d.u32()
		off := d.i64()
		n := int(d.u16())
		chain := make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			chain = append(chain, d.str())
		}
		if d.err == nil {
			err = s.reopen(id, flag, perm, off, chain)
		}
	default:
		err = fmt.Errorf("server: unknown message %s", msgName(typ))
	}

	if d.err != nil {
		err = fmt.Errorf("server: %s: %w", msgName(typ), d.err)
	}
	if err == nil && e.err != nil {
		err = e.err // a reply field that cannot be encoded (over-long name)
	}
	if err != nil && replay && healReplay(typ, err) {
		err = nil
		e.b = e.b[:0] // healed ops all carry empty reply bodies
		s.srv.stats.healedReplays.Add(1)
	}
	if err != nil {
		return encodeError(reqID, err)
	}
	return rtyp, reqID, e.b
}

// revokePathLeases revokes outstanding leases on the inode a resolved
// path (Session.resolve) names. Gated on leasesActive so lease-free
// serving performs exactly the pre-lease operation sequence — the
// determinism the crash differential and the bench baselines pin.
func (s *Session) revokePathLeases(path string) {
	if !s.srv.leasesActive() {
		return
	}
	fi, err := s.srv.fs.Stat(path)
	if err != nil {
		return // nothing at the path, nothing leased
	}
	s.srv.revokeIno(fi.Ino)
}

// revokeFileLeases revokes outstanding leases on an open file's inode.
// Same gating as revokePathLeases.
func (s *Session) revokeFileLeases(f vfs.File) {
	if !s.srv.leasesActive() {
		return
	}
	fi, err := f.Stat()
	if err != nil {
		return
	}
	s.srv.revokeIno(fi.Ino)
}

// reopen re-establishes a handle at its original wire ID during a cold
// resume (the session is fresh; the parked one died with the server).
// chain lists every path the file may durably sit at, oldest first: the
// path the handle was opened under (or held at the last barrier) plus
// each rename destination the client sent since. Recovery rolled the
// namespace back to some prefix of those operations, so exactly one
// chain entry exists — probe newest first, and if none exists the file's
// creation itself was lost: recreate it empty at the oldest name and let
// the replayed log rebuild it. O_TRUNC/O_EXCL are stripped — a re-open
// must never destroy recovered data.
func (s *Session) reopen(id uint64, flag int, perm uint32, off int64, chain []string) error {
	if len(chain) == 0 {
		return vfs.WrapPath("reopen", "", vfs.ErrInval)
	}
	if _, err := s.ht.Get(fd(id)); err == nil {
		return nil // already bound: an earlier resume attempt won
	}
	probe := flag &^ (vfs.O_TRUNC | vfs.O_EXCL | vfs.O_CREATE)
	var f vfs.File
	for i := len(chain) - 1; i >= 0; i-- {
		g, err := s.srv.fs.OpenFile(s.resolve(chain[i]), probe, perm)
		if err == nil {
			f = g
			break
		}
		if !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
	}
	if f == nil {
		g, err := s.srv.fs.OpenFile(s.resolve(chain[0]), probe|vfs.O_CREATE, perm)
		if err != nil {
			return err
		}
		f = g
	}
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			f.Close()
			return err
		}
	}
	if err := s.ht.InsertAt(fd(id), f); err != nil {
		f.Close()
		return err
	}
	return nil
}

// withFile resolves a handle and runs fn on it.
func (s *Session) withFile(id uint64, fn func(vfs.File) error) error {
	f, err := s.ht.Get(fd(id))
	if err != nil {
		return err
	}
	return fn(f)
}

// fd maps a wire handle ID to its descriptor in the session's table. An
// ID no table could have issued maps to -1, which every FDTable method
// refuses (ErrBadFD; ErrInval from InsertAt).
func fd(id uint64) int {
	if id > math.MaxInt32 {
		return -1
	}
	return int(id)
}

// capRead bounds a read request to the payload limit; the client chunks
// larger reads, so hitting the cap just produces a short read.
func capRead(n uint32) int {
	if n > maxPayload-64 {
		return maxPayload - 64
	}
	return int(n)
}
