package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// resumeMaxAttempts bounds reconnect attempts per failed operation; the
// redial callback is expected to block until the service is reachable,
// so exhaustion means the service is persistently refusing us.
const resumeMaxAttempts = 8

// DialResumableConfig attaches a crash-tolerant session with cfg: the returned Client
// transparently survives transport loss and full server restarts.
// redial is called for every (re)connection — it should block until the
// service is reachable again and may be called several times per
// outage. Requests are strictly serialized (one outstanding at a time),
// which is what makes the client's replay log a faithful record of the
// server's execution order.
//
// The resume guarantee: after any interleaving of disconnects, server
// restarts, and resumes, an acknowledged SyncAll means every previously
// acknowledged operation is durable; operations after the last
// acknowledged SyncAll are re-applied exactly once on reconnect — the
// server's per-session reply cache dedupes re-sent requests that
// already executed, and the replay heal rules absorb namespace
// operations that recovery preserved. One discipline is required of
// the workload (the crash campaigns follow it): path names are never
// reused once unlinked or renamed away (reopen chains identify files by
// name). Every write carries its offset — the File keeps it, so a cold
// resume has none to restore — and replays idempotently, except an
// O_APPEND write: it lands at the end of file as the server finds it,
// so across a server restart it degrades to at-least-once.
//
// Leases on a resumable session are read-only: a leased write would
// bypass the replay log, so writes always take the logged wire path.
func DialResumableConfig(redial func() (io.ReadWriteCloser, error), cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := &Client{}
	t := &resumeState{x: &c.x, redial: redial, root: cfg.Root, handles: make(map[uint64]*handleMeta)}
	if err := t.resume(); err != nil {
		return nil, err
	}
	c.rs, c.fsName, c.leaseReads = t, t.fsName, cfg.EnableLeases
	return c, nil
}

// resumeState is what a resumable session adds to the client's exchange:
// the replay log and per-handle metadata that let it rebuild the session
// on another connection — or another server generation. Guarded, with
// the exchange, by Client.mu.
type resumeState struct {
	x      *exchange // the client's
	redial func() (io.ReadWriteCloser, error)
	root   string

	token       uint64
	fsName      string
	records     []*opRecord // mutating ops since the last durable barrier
	handles     map[uint64]*handleMeta
	coldPending bool // a cold rebuild started and has not completed
}

// opRecord is one logged mutating request: the raw payload it went out
// with (replayed verbatim under its original sequence number) and the
// reply once acknowledged.
type opRecord struct {
	seq     uint32
	typ     uint8
	payload []byte
	acked   bool
	rtyp    uint8
	reply   []byte
	openID  uint64 // Topen only: the handle the reply assigned
}

// handleMeta tracks what a cold resume needs to re-establish a handle
// at its original wire ID: open mode and the chain of names the file may
// durably sit at (its name at the last barrier plus every rename
// destination sent since — an over-approximation the server probes
// newest-first). The offset is the client File's own: every read and
// write carries it.
type handleMeta struct {
	id         uint64
	flag       int
	perm       uint32
	curPath    string
	chain      []string
	reopenSeq  uint32
	preBarrier bool // opened before the last barrier (no Topen in the log)
	closed     bool
}

// pureOp reports requests with no server-side effect beyond their
// reply; they are never logged, just retried fresh after a resume.
func pureOp(typ uint8) bool {
	switch typ {
	case tStat, tFstat, tReadDir, tPread, tLease, tRevokeAck:
		// tLease grants nothing a replay must rebuild: leases die with
		// their session, and the client re-grants on demand. Logging it
		// would re-grant stale mappings during replay.
		return true
	}
	return false
}

// drive carries one request to its reply, logging and replaying it as
// the request type requires. The reply is a buffer of its own, which the
// log may keep. Caller holds Client.mu.
func (t *resumeState) drive(typ uint8, payload []byte) (uint8, []byte, error) {
	if typ == tDetach {
		// Best effort: if the transport is gone the parked session lives
		// until the server closes; resuming just to say goodbye would
		// re-apply the whole tail for nothing.
		return t.x.roundTrip(typ, t.x.next(), payload, nil)
	}
	if pureOp(typ) {
		for attempt := 0; ; attempt++ {
			rtyp, rp, err := t.x.roundTrip(typ, t.x.next(), payload, nil)
			if err == nil {
				return rtyp, rp, nil
			}
			if attempt >= resumeMaxAttempts {
				return 0, nil, err
			}
			if rerr := t.resume(); rerr != nil {
				return 0, nil, rerr
			}
		}
	}
	// Mutating operation: log first, then drive it to an acknowledged
	// reply, resuming the session as often as the transport fails.
	// The log outlives the caller's request buffer, which is reused.
	rec := &opRecord{seq: t.x.next(), typ: typ, payload: append([]byte(nil), payload...)}
	t.chainRenames(typ, payload)
	t.records = append(t.records, rec)
	for attempt := 0; ; attempt++ {
		rtyp, rp, err := t.x.roundTrip(rec.typ, rec.seq, rec.payload, nil)
		if err == nil {
			t.ack(rec, rtyp, rp)
			return rtyp, rp, nil
		}
		if attempt >= resumeMaxAttempts {
			return 0, nil, err
		}
		if rerr := t.resume(); rerr != nil {
			return 0, nil, rerr
		}
		if rec.acked {
			// resume's replay already carried it to a reply.
			return rec.rtyp, rec.reply, nil
		}
	}
}

// chainRenames extends handle reopen chains when a rename is SENT, not
// when it is acknowledged: after a crash the rename may or may not have
// applied durably, so the chain over-approximates the names the file
// can sit at and the server probes newest-first. Because resumable
// workloads never reuse names, a chain entry for a rename that never
// applied cannot resolve to some other file. A handle closed since the
// last barrier follows renames like an open one: a cold resume still
// re-establishes it (its logged writes replay through it), and a reopen
// that probed only the stale name would recreate the file empty.
func (t *resumeState) chainRenames(typ uint8, payload []byte) {
	var r msg
	if typ != tRename || get(tRename, payload, &r) != nil {
		return
	}
	for _, m := range t.handles {
		if m.curPath == r.path {
			m.chain = append(m.chain, r.path2)
		} else if strings.HasPrefix(m.curPath, r.path+"/") {
			m.chain = append(m.chain, r.path2+m.curPath[len(r.path):])
		}
	}
}

// ack records a reply and folds its effect into the handle metadata.
func (t *resumeState) ack(rec *opRecord, rtyp uint8, rp []byte) {
	rec.acked, rec.rtyp, rec.reply = true, rtyp, rp
	if rtyp == rError {
		return
	}
	var req, r msg
	switch rec.typ {
	case tOpen:
		if get(tOpen, rec.payload, &req) != nil || get(rOpen, rp, &r) != nil {
			return
		}
		rec.openID = r.handle
		t.handles[r.handle] = &handleMeta{id: r.handle, flag: int(req.flag), perm: req.perm, curPath: req.path, chain: []string{req.path}}
	case tClose:
		if get(tClose, rec.payload, &req) == nil && t.handles[req.handle] != nil {
			t.handles[req.handle].closed = true
		}
	case tRename:
		if get(tRename, rec.payload, &req) != nil {
			return
		}
		for _, m := range t.handles {
			if m.curPath == req.path {
				m.curPath = req.path2
			} else if strings.HasPrefix(m.curPath, req.path+"/") {
				m.curPath = req.path2 + m.curPath[len(req.path):]
			}
		}
	case tSyncAll:
		t.barrier()
	}
}

// barrier runs when a SyncAll acknowledges successfully: everything
// acknowledged before it is durable in every mode, so the replay log
// empties and each surviving handle's reopen chain collapses to its
// current name.
func (t *resumeState) barrier() {
	t.records = nil
	for id, m := range t.handles {
		if m.closed {
			delete(t.handles, id)
			continue
		}
		m.preBarrier = true
		m.chain = []string{m.curPath}
	}
}

// resume re-establishes the session after transport loss, dialing
// once per attempt. The resumable Tattach names the session by token.
// Warm path: the server adopts it — the parked session kept every
// handle and its exactly-once reply cache, so only the unacknowledged
// tail is re-sent. Cold path (server restarted, the parked session died
// with it): the server attaches a fresh session instead, and the client
// re-establishes pre-barrier handles with Treopen, then replays the full
// log since the barrier in order — acknowledged operations rebuild
// session state and any data recovery rolled back, the reply cache and
// heal rules keep each of them single-application, and the
// unacknowledged tail completes normally. A cold rebuild interrupted
// mid-replay runs to completion on the next attempt even if that one
// adopts warm: the reply cache dedupes whatever already re-executed.
func (t *resumeState) resume() error {
	var lastErr error
	for attempt := 0; attempt < resumeMaxAttempts; attempt++ {
		rwc, err := t.redial()
		if err != nil {
			return fmt.Errorf("%w: redial: %w", errConnLost, err)
		}
		fresh, herr := t.handshake(rwc, bufio.NewReaderSize(rwc, 64<<10))
		if herr != nil {
			if errors.Is(herr, errConnLost) {
				lastErr = herr
				continue
			}
			return herr // the server refused the attach outright
		}
		t.coldPending = fresh || t.coldPending
		if rerr := t.replay(t.coldPending); rerr != nil {
			lastErr = rerr
			continue
		}
		t.coldPending = false
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: resume attempts exhausted", errConnLost)
	}
	return lastErr
}

// handshake performs the resumable Tattach on a fresh connection,
// presenting the current token, and reports whether the server attached
// a fresh session (a token other than the one presented) rather than
// adopting the old one. On success the connection becomes the
// transport; on failure it is closed.
func (t *resumeState) handshake(rwc io.ReadWriteCloser, br *bufio.Reader) (fresh bool, err error) {
	name, token, err := attachExchange(rwc, br, t.token, t.root, true)
	if err != nil {
		return false, err
	}
	fresh, t.token = token != t.token, token
	t.fsName = name
	t.x.drop()
	t.x.rwc, t.x.br = rwc, br
	return fresh, nil
}

// replay rebuilds session state on the current connection. Warm resumes
// re-send only the unacknowledged tail; cold resumes first re-establish
// every pre-barrier handle at its original wire ID, then walk the whole
// log — converting acknowledged Topens to Treopens inline, at their
// original position, so namespace operations that precede an open
// replay before it.
func (t *resumeState) replay(cold bool) error {
	if cold {
		metas := make([]*handleMeta, 0, len(t.handles))
		for _, m := range t.handles {
			if m.preBarrier {
				metas = append(metas, m)
			}
		}
		sort.Slice(metas, func(i, j int) bool { return metas[i].id < metas[j].id })
		for _, m := range metas {
			if m.reopenSeq == 0 {
				m.reopenSeq = t.x.next()
			}
			if err := t.sendReopen(m.reopenSeq, m); err != nil {
				return err
			}
		}
	}
	recs := t.records
	for _, rec := range recs {
		if !cold && rec.acked {
			continue
		}
		if rec.typ == tOpen && rec.acked {
			if rec.openID == 0 {
				continue // the original open failed; nothing to rebuild
			}
			m := t.handles[rec.openID]
			if m == nil {
				continue
			}
			if err := t.sendReopen(rec.seq, m); err != nil {
				return err
			}
			continue
		}
		rtyp, rp, err := t.x.roundTrip(rec.typ|flagReplay, rec.seq, rec.payload, nil)
		if err != nil {
			return err
		}
		if !rec.acked {
			t.ack(rec, rtyp, rp)
		}
	}
	return nil
}

func (t *resumeState) sendReopen(seq uint32, m *handleMeta) error {
	var e enc
	put(tReopen, &msg{handle: m.id, flag: uint32(m.flag), perm: m.perm, chain: m.chain}, &e)
	if e.err != nil {
		return e.err
	}
	rtyp, rp, err := t.x.roundTrip(tReopen|flagReplay, seq, e.b, nil)
	if err != nil {
		return err
	}
	if rtyp == rError {
		return fmt.Errorf("server: reopen handle %d: %w", m.id, decodeError(rp))
	}
	return nil
}
