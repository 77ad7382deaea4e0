package server

import (
	"fmt"
	"sync/atomic"

	"splitfs/internal/obs"
)

// maxMsgType bounds the per-message-type counter arrays: message type
// constants are dense from tAttach through rRevokeAck, so fixed arrays
// indexed by type make op accounting a pair of atomic adds — no map,
// no allocation, nothing on the dispatch path that could perturb the
// deterministic op sequence the crash differential pins.
const maxMsgType = int(rRevokeAck) + 1

// sessionObs is one session's metric block. Folding a detached
// session's block into the server's retired block keeps server-wide
// totals exact across the session churn the crash campaigns generate.
type sessionObs struct {
	ops   [maxMsgType]atomic.Int64 // requests dispatched, by request type
	bytes [maxMsgType]atomic.Int64 // request + reply payload bytes, by request type
	errs  [maxMsgType]atomic.Int64 // Rerror replies, by request type
	cost  atomic.Int64             // summed OpClock deltas across ops
	costH obs.Histogram            // per-op OpClock delta distribution
}

// idx clamps a message type into the counter arrays; an unknown type
// (protocol garbage) accounts under slot 0 rather than panicking.
func obsIdx(typ uint8) int {
	if int(typ) < maxMsgType {
		return int(typ)
	}
	return 0
}

// fold adds other's counts into o.
func (o *sessionObs) fold(other *sessionObs) {
	for i := 0; i < maxMsgType; i++ {
		o.ops[i].Add(other.ops[i].Load())
		o.bytes[i].Add(other.bytes[i].Load())
		o.errs[i].Add(other.errs[i].Load())
	}
	o.cost.Add(other.cost.Load())
	o.costH.Merge(&other.costH)
}

func (o *sessionObs) totals() (ops, bytes, errs int64) {
	for i := 0; i < maxMsgType; i++ {
		ops += o.ops[i].Load()
		bytes += o.bytes[i].Load()
		errs += o.errs[i].Load()
	}
	return
}

// probe samples the configured op-cost and fence feeds. Both default to
// zero-valued no-ops, so an uninstrumented server pays two nil checks
// per op and nothing else.
func (srv *Server) probe() (cost, fences int64) {
	if srv.cfg.OpClock != nil {
		cost = srv.cfg.OpClock()
	}
	if srv.cfg.OpFences != nil {
		fences = srv.cfg.OpFences()
	}
	return
}

// observe records one dispatched request into the session's metric
// block and flight recorder. reqBytes/repBytes are the request and
// reply payload sizes; cost and fences are deltas across execute.
func (s *Session) observe(typ uint8, reqID uint32, reqPayload, repPayload []byte, rtyp uint8, flags uint8, cost, fences int64) {
	i := obsIdx(typ)
	s.obs.ops[i].Add(1)
	s.obs.bytes[i].Add(int64(len(reqPayload) + len(repPayload)))
	if rtyp == rError {
		s.obs.errs[i].Add(1)
		flags |= obs.FlagError
	}
	if typ == tLease || typ == tRevokeAck {
		flags |= obs.FlagLease
	}
	if cost != 0 {
		s.obs.cost.Add(cost)
	}
	if s.srv.cfg.OpClock != nil {
		s.obs.costH.Observe(cost)
	}
	s.flight.Append(obs.Record{
		ReqID:    reqID,
		Msg:      typ,
		Flags:    flags,
		PathHash: pathHashOf(typ, reqPayload),
		Bytes:    int64(len(reqPayload) + len(repPayload)),
		Fences:   fences,
		Cost:     cost,
	})
}

// pathHashOf extracts the request's subject identity for the flight
// record: an FNV-1a hash of the path for path-addressed requests, the
// handle id itself for handle-addressed ones (ids are small and dense,
// so they double as readable identifiers in a trace), zero otherwise.
// Decoding here is read-only over the payload and tolerates malformed
// frames — execute reports those; the recorder just logs hash 0.
func pathHashOf(typ uint8, payload []byte) uint64 {
	d := dec{b: payload}
	switch typ {
	case tAttach, tStat, tReadDir, tUnlink, tRmdir, tRename:
		return obs.FNV1a(d.str())
	case tMkdir:
		d.u32() // perm
		return obs.FNV1a(d.str())
	case tOpen:
		d.u32() // flag
		d.u32() // perm
		return obs.FNV1a(d.str())
	case tClose, tRead, tWrite, tPread, tPwrite, tSeek, tTruncate,
		tFsync, tFstat, tLease, tReopen, tRevokeAck:
		return d.u64()
	}
	return 0
}

// retiredFlightCap bounds how many detached sessions' flight recorders
// the server retains: enough for every tenant of a crash campaign
// generation to leave its trace behind, small enough that a long-lived
// daemon does not accumulate dead rings.
const retiredFlightCap = 16

// retiredFlight is one detached session's final flight state.
type retiredFlight struct {
	id     uint64
	root   string
	gen    int64
	flight *obs.Recorder
}

// retireSession folds a detached session's metric block into the
// server-wide totals and parks its flight recorder for post-mortem
// dumps (the crash engine reads traces after teardown). Called from
// detach with srv.mu available.
func (srv *Server) retireSession(s *Session) {
	srv.retiredObs.fold(&s.obs)
	srv.mu.Lock()
	srv.retired = append(srv.retired, retiredFlight{id: s.id, root: s.root, gen: s.gen.Load(), flight: s.flight})
	if len(srv.retired) > retiredFlightCap {
		srv.retired = srv.retired[len(srv.retired)-retiredFlightCap:]
	}
	srv.mu.Unlock()
}

// OpMetrics is one message type's share of a metric snapshot.
type OpMetrics struct {
	Msg    string `json:"msg"`
	Ops    int64  `json:"ops"`
	Bytes  int64  `json:"bytes,omitempty"`
	Errors int64  `json:"errors,omitempty"`
}

// SessionMetrics is one live session's row in the ctl "sessions" and
// "stats" listings: identity, attach generation, and the quota inputs
// (handles, leases, op/byte totals) an admission controller would read.
type SessionMetrics struct {
	ID        uint64       `json:"id"`
	Root      string       `json:"root"`
	Gen       int64        `json:"gen"`
	Resumable bool         `json:"resumable"`
	Parked    bool         `json:"parked"`
	Handles   int          `json:"handles"`
	Leases    int          `json:"leases"`
	Ops       int64        `json:"ops"`
	Bytes     int64        `json:"bytes"`
	Errors    int64        `json:"errors"`
	Cost      int64        `json:"cost,omitempty"`
	CostHist  []obs.Bucket `json:"cost_hist,omitempty"`
	ByType    []OpMetrics  `json:"by_type,omitempty"`
	Flight    []obs.Record `json:"flight,omitempty"`
}

// ServerMetrics is the server-wide stats snapshot the ctl socket
// serves: wire/replay counters, live-session state, and op totals that
// include every detached session (exact across churn).
type ServerMetrics struct {
	Backend  string           `json:"backend"`
	Wire     WireStats        `json:"wire"`
	Sessions int              `json:"sessions"`
	Parked   int              `json:"parked"`
	Handles  int              `json:"handles"`
	Leases   int64            `json:"leases"`
	Ops      int64            `json:"ops"`
	Bytes    int64            `json:"bytes"`
	Errors   int64            `json:"errors"`
	Cost     int64            `json:"cost,omitempty"`
	CostHist []obs.Bucket     `json:"cost_hist,omitempty"`
	ByType   []OpMetrics      `json:"by_type,omitempty"`
	PerSess  []SessionMetrics `json:"per_session,omitempty"`
}

// byType renders the non-empty per-type rows of a metric block in
// message-type order (deterministic: fixed array order, no maps).
func (o *sessionObs) byType() []OpMetrics {
	var out []OpMetrics
	for i := 1; i < maxMsgType; i++ {
		n := o.ops[i].Load()
		if n == 0 {
			continue
		}
		out = append(out, OpMetrics{
			Msg:    msgName(uint8(i)),
			Ops:    n,
			Bytes:  o.bytes[i].Load(),
			Errors: o.errs[i].Load(),
		})
	}
	return out
}

// sessionsByID returns the live sessions sorted by id.
func (srv *Server) sessionsByID() []*Session {
	srv.mu.Lock()
	sess := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sess = append(sess, s)
	}
	srv.mu.Unlock()
	for i := 1; i < len(sess); i++ {
		for j := i; j > 0 && sess[j-1].id > sess[j].id; j-- {
			sess[j-1], sess[j] = sess[j], sess[j-1]
		}
	}
	return sess
}

// Metrics snapshots one session's counters. withFlight additionally
// dumps the flight recorder (the trace is bounded by the ring size).
func (s *Session) Metrics(withFlight bool) SessionMetrics {
	ops, bytes, errs := s.obs.totals()
	s.mu.Lock()
	parked := s.parked
	s.mu.Unlock()
	m := SessionMetrics{
		ID:        s.id,
		Root:      s.root,
		Gen:       s.gen.Load(),
		Resumable: s.token != 0,
		Parked:    parked,
		Handles:   s.ht.Len(),
		Leases:    s.srv.sessionLeaseCount(s),
		Ops:       ops,
		Bytes:     bytes,
		Errors:    errs,
		Cost:      s.obs.cost.Load(),
		CostHist:  obs.HistBucketsOf(&s.obs.costH),
		ByType:    s.obs.byType(),
	}
	if withFlight {
		m.Flight = s.flight.Dump()
	}
	return m
}

// sessionLeaseCount reports a session's outstanding lease segments.
func (srv *Server) sessionLeaseCount(s *Session) int {
	srv.leaseMu.Lock()
	defer srv.leaseMu.Unlock()
	return len(s.leases)
}

// MetricsSnapshot builds the server-wide stats view. perSession
// includes one row per live session (without flight traces — those are
// fetched per session via FlightDump / ctl "trace").
func (srv *Server) MetricsSnapshot(perSession bool) ServerMetrics {
	sess := srv.sessionsByID()
	var total sessionObs
	total.fold(&srv.retiredObs)
	parked := 0
	handles := 0
	var rows []SessionMetrics
	for _, s := range sess {
		total.fold(&s.obs)
		sm := s.Metrics(false)
		if sm.Parked {
			parked++
		}
		handles += sm.Handles
		if perSession {
			rows = append(rows, sm)
		}
	}
	ops, bytes, errs := total.totals()
	return ServerMetrics{
		Backend:  srv.fs.Name(),
		Wire:     srv.Stats(),
		Sessions: len(sess),
		Parked:   parked,
		Handles:  handles,
		Leases:   srv.nLeases.Load(),
		Ops:      ops,
		Bytes:    bytes,
		Errors:   errs,
		Cost:     total.cost.Load(),
		CostHist: obs.HistBucketsOf(&total.costH),
		ByType:   total.byType(),
		PerSess:  rows,
	}
}

// FlightDump returns a session's flight trace by id, searching live
// sessions first and then the retired ring (a session that detached —
// crash teardown included — keeps its trace readable).
func (srv *Server) FlightDump(id uint64) (SessionMetrics, bool) {
	srv.mu.Lock()
	s := srv.sessions[id]
	srv.mu.Unlock()
	if s != nil {
		return s.Metrics(true), true
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i := len(srv.retired) - 1; i >= 0; i-- {
		r := srv.retired[i]
		if r.id == id {
			return SessionMetrics{ID: r.id, Root: r.root, Gen: r.gen, Flight: r.flight.Dump()}, true
		}
	}
	return SessionMetrics{}, false
}

// FlightReport renders every known flight trace (live sessions, then
// retired ones) as text, newest record last — the attachment the crash
// campaigns ship with a violation so a minimized reproducer carries the
// ops each tenant had in flight.
func (srv *Server) FlightReport() string {
	var b []byte
	emit := func(id uint64, root string, gen int64, live bool, recs []obs.Record) {
		state := "retired"
		if live {
			state = "live"
		}
		b = append(b, []byte(fmtSessionHeader(id, root, gen, state, len(recs)))...)
		for _, r := range recs {
			b = append(b, []byte(fmtFlightRecord(r))...)
		}
	}
	for _, s := range srv.sessionsByID() {
		emit(s.id, s.root, s.gen.Load(), true, s.flight.Dump())
	}
	srv.mu.Lock()
	retired := append([]retiredFlight(nil), srv.retired...)
	srv.mu.Unlock()
	for _, r := range retired {
		emit(r.id, r.root, r.gen, false, r.flight.Dump())
	}
	return string(b)
}

func fmtSessionHeader(id uint64, root string, gen int64, state string, n int) string {
	return fmt.Sprintf("session %d root=%s gen=%d %s (%d records)\n", id, root, gen, state, n)
}

func fmtFlightRecord(r obs.Record) string {
	flags := ""
	if r.Flags&obs.FlagError != 0 {
		flags += "E"
	}
	if r.Flags&obs.FlagReplay != 0 {
		flags += "R"
	}
	if r.Flags&obs.FlagCached != 0 {
		flags += "C"
	}
	if r.Flags&obs.FlagLease != 0 {
		flags += "L"
	}
	if flags == "" {
		flags = "-"
	}
	return fmt.Sprintf("  #%d %s req=%d flags=%s subj=%#x bytes=%d fences=%d cost=%d\n",
		r.Seq, msgName(r.Msg), r.ReqID, flags, r.PathHash, r.Bytes, r.Fences, r.Cost)
}

// RegisterObs exports the server's counters into an obs registry as
// computed gauges. Totals include detached sessions (retireSession
// folds them), so the gauges are monotone across session churn.
func (srv *Server) RegisterObs(r *obs.Registry) {
	liveTotals := func() (ops, bytes, errs, cost int64) {
		ops, bytes, errs = srv.retiredObs.totals()
		cost = srv.retiredObs.cost.Load()
		for _, s := range srv.sessionsByID() {
			o, b, e := s.obs.totals()
			ops += o
			bytes += b
			errs += e
			cost += s.obs.cost.Load()
		}
		return
	}
	r.Func("server/ops", func() int64 { o, _, _, _ := liveTotals(); return o })
	r.Func("server/wire_bytes", func() int64 { _, b, _, _ := liveTotals(); return b })
	r.Func("server/errors", func() int64 { _, _, e, _ := liveTotals(); return e })
	r.Func("server/op_cost", func() int64 { _, _, _, c := liveTotals(); return c })
	r.Func("server/sessions", func() int64 { return int64(srv.SessionCount()) })
	r.Func("server/handles", func() int64 { return int64(srv.OpenHandles()) })
	r.Func("server/leases", srv.nLeases.Load)
	r.Func("server/lease_grants", srv.stats.leaseGrants.Load)
	r.Func("server/lease_revokes", srv.stats.leaseRevokes.Load)
	r.Func("server/revoke_acks", srv.stats.revokeAcks.Load)
	r.Func("server/replayed_requests", srv.stats.replayedRequests.Load)
	r.Func("server/replay_cache_hits", srv.stats.replayCacheHits.Load)
	r.Func("server/healed_replays", srv.stats.healedReplays.Load)
	r.Func("server/reattached", srv.stats.reattached.Load)
	r.Func("server/parked_sessions", srv.stats.parkedSessions.Load)
	r.Func("server/dropped_replies", srv.stats.droppedReplies.Load)
}
