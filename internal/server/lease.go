// Zero-copy data plane: leases over shared mapping segments.
//
// A lease is the served equivalent of the paper's per-application mmap:
// the server collects a file's extent mappings through the backend's
// vfs.Mappable capability and publishes them as a *segment* — an
// in-process object standing in for a shared-memory window onto the PM
// device (modeled on ext4dax.Mapping). The client library resolves the
// segment by id and satisfies reads with plain loads through the
// extents, and staged appends by storing through the mapped file
// directly; neither crosses the RPC codec. Only metadata operations,
// lease grants, and revocations stay on the wire.
//
// Coherence is seqlock-style (see vfs.Mappable): every remapping event
// bumps the backend's mapping epoch before stale device bytes can be
// recycled, and a leased read validates the epoch after its loads,
// discarding the bytes and retiring to the copy path if it moved. The
// segment's revoked flag is the server-initiated half: destructive
// namespace/size operations (truncate, O_TRUNC or conflicting writable
// opens, rename, unlink) revoke outstanding leases on the file before
// executing — found in the server's name table (names.go), never by a
// backend lookup — and the revoker sets the flag, then takes the
// segment lock write-side to drain readers pinned under the read side,
// then queues a Trevoke message on the holder's session, which writes
// it just ahead of its next reply: the client learns at its next
// exchange rather than on its next validation failure.
//
// Lock hierarchy: sessexec (a session's executor lock, Session.execMu)
// is outermost — a request grants and revokes from inside it, and a
// revocation reaches another session only by queuing a push under that
// session's replyMu: never its executor lock, and never a write to its
// connection, which could block the revoker on an idle client that is
// not reading; nametab (the server's name table, which indexes the
// leases by handle) is taken on its own, never inside a segment or
// backend lock, and released before a revoker drains a segment;
// leaseseg is held read-side across backend data operations, hence
// ordered outside the splitfs writer lock.
//
// +lockrank:order sessexec < nametab
// +lockrank:order sessexec < leaseseg < wmu
package server

import (
	"sync"
	"sync/atomic"

	"splitfs/internal/vfs"
)

// leaseSegment is one granted lease: the published mapping window plus
// the revocation state shared between server and client (the flag page
// of the shared-memory segment, in the model).
type leaseSegment struct {
	id      uint64
	sess    *Session
	file    vfs.File     // server-side open file backing the lease
	m       vfs.Mappable // same object, mapped capability
	epoch   uint64       // mapping epoch the extents were collected under
	size    int64        // file size at grant time
	extents []vfs.Extent

	// mu pins in-flight leased I/O: readers hold the read side across
	// their loads, the revoker takes the write side once to drain them
	// before the destructive operation proceeds.
	mu      sync.RWMutex // +lockrank:leaseseg
	revoked atomic.Bool
	acked   atomic.Bool // client acknowledged the revoke (advisory)
}

// segRegistry is the process-global segment namespace — the stand-in
// for the shared-memory object store both sides map. A client that
// cannot resolve a segment id here (a hypothetical out-of-process peer)
// simply stays on the copy path.
var segRegistry = struct {
	mu   sync.Mutex // +lockrank:leasereg
	m    map[uint64]*leaseSegment
	next uint64
}{m: map[uint64]*leaseSegment{}}

func registerSegment(seg *leaseSegment) {
	segRegistry.mu.Lock()
	segRegistry.next++
	seg.id = segRegistry.next
	segRegistry.m[seg.id] = seg
	segRegistry.mu.Unlock()
}

// lookupSegment resolves a segment id. issued reports whether this
// process's registry handed the id out: an issued id that resolves to
// nothing was revoked since its grant — a revoker does not wait for the
// holder to look its grant up — while an id never issued here was
// granted by a server in another process. Ids are sequence numbers, so
// in a process that also serves, another server's id can read as issued;
// that costs its handle a Tlease per operation, never a wrong byte.
func lookupSegment(id uint64) (seg *leaseSegment, issued bool) {
	segRegistry.mu.Lock()
	defer segRegistry.mu.Unlock()
	return segRegistry.m[id], id <= segRegistry.next
}

func unregisterSegment(id uint64) {
	segRegistry.mu.Lock()
	delete(segRegistry.m, id)
	segRegistry.mu.Unlock()
}

// grantLease builds a lease for the session's open handle and files it
// in the handle's name-table row. A segment the row still holds is
// superseded: the client asks again only once it has dropped its lease
// (an epoch moved, or the mapping no longer covered a range), so the
// old segment is retired without a Trevoke and is not counted as
// revoked. Caller is the session's executor (tLease).
func (srv *Server) grantLease(s *Session, handle uint64, f vfs.File) (*leaseSegment, error) {
	m, ok := f.(vfs.Mappable)
	if !ok {
		return nil, vfs.WrapPath("lease", "", vfs.ErrInval)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.IsDir {
		return nil, vfs.WrapPath("lease", "", vfs.ErrIsDir)
	}
	exts, epoch, err := m.MapExtents(0, fi.Size)
	if err != nil {
		return nil, err
	}
	seg := &leaseSegment{sess: s, file: f, m: m, epoch: epoch, size: fi.Size, extents: exts}
	registerSegment(seg)
	srv.nLeases.Add(1)
	ref := handleRef{s, handle}
	srv.nameMu.Lock()
	e := srv.names[ref]
	old := e.seg
	e.seg = seg
	srv.names[ref] = e
	srv.nameMu.Unlock()
	if old != nil {
		srv.retireSegment(old)
	}
	srv.stats.leaseGrants.Add(1)
	return seg, nil
}

// leasesActive reports whether any lease is outstanding. The revocation
// hooks in Session.execute are gated on it, and they look only at the
// name table, so a served request issues the same backend calls with
// leases on as with leases off: the grants (a Tlease's fstat and extent
// collection) are the only backend work the lease plane adds.
func (srv *Server) leasesActive() bool { return srv.nLeases.Load() > 0 }

// revokeKey revokes the leases of every handle known by key: a
// resolved path (Session.resolve), or an open handle's key for a
// truncate through it. Called by the destructive-operation hooks before
// the operation executes.
func (srv *Server) revokeKey(key nameKey) {
	srv.revokeWhere(func(_ handleRef, e nameEntry) bool { return e.key == key })
}

// revokeHandleLeases revokes the lease granted on one session handle.
func (srv *Server) revokeHandleLeases(s *Session, handle uint64) {
	srv.revokeWhere(func(ref handleRef, _ nameEntry) bool {
		return ref == handleRef{s, handle}
	})
}

// revokeWhere takes the leases of matching rows out of the table under
// nameMu, then revokes them with no table lock held (the drain must not
// nest inside nameMu: a reader pinned under seg.mu never takes nameMu,
// but keeping the scopes disjoint keeps the hierarchy flat).
func (srv *Server) revokeWhere(match func(handleRef, nameEntry) bool) {
	if !srv.leasesActive() {
		return
	}
	var buf [4]*leaseSegment
	victims := buf[:0]
	srv.nameMu.Lock()
	for ref, e := range srv.names {
		if e.seg == nil || !match(ref, e) {
			continue
		}
		victims = append(victims, e.seg)
		e.seg = nil
		srv.names[ref] = e
	}
	srv.nameMu.Unlock()
	for _, seg := range victims {
		srv.revokeSegment(seg)
	}
}

// dropSession forgets every handle of a session being torn down and
// revokes their leases. Teardown runs it before closing the handle
// table, so no lease survives its session — and, since Server.Close
// tears every session down, no lease survives a server generation.
func (srv *Server) dropSession(s *Session) {
	var victims []*leaseSegment
	srv.nameMu.Lock()
	for ref, e := range srv.names {
		if ref.s != s {
			continue
		}
		delete(srv.names, ref)
		if e.seg != nil {
			victims = append(victims, e.seg)
		}
	}
	srv.nameMu.Unlock()
	for _, seg := range victims {
		srv.revokeSegment(seg)
	}
}

// revokeSegment performs the revocation protocol on one segment: retire
// it, then notify its holder. Idempotent.
func (srv *Server) revokeSegment(seg *leaseSegment) {
	if srv.retireSegment(seg) {
		srv.stats.leaseRevokes.Add(1)
		seg.sess.pushRevoke(seg.id)
	}
}

// retireSegment takes a segment out of service: flag, drain, unregister.
// It reports false when the segment was already retired.
func (srv *Server) retireSegment(seg *leaseSegment) bool {
	if seg.revoked.Swap(true) {
		return false
	}
	// Drain: an in-flight leased read or write holds seg.mu read-side;
	// once the write side is acquired every pinned operation has
	// completed, and any later one observes the revoked flag.
	seg.mu.Lock()
	seg.mu.Unlock() //nolint — empty critical section IS the drain barrier
	srv.nLeases.Add(-1)
	unregisterSegment(seg.id)
	return true
}

// pushRevoke queues the server-initiated Trevoke frame for the session's
// client; reply writes it, with request id 0 (client request ids start
// at 1), just ahead of the session's next reply. A parked session has no
// conn: its client learns from the shared revoked flag, which is already
// set.
func (s *Session) pushRevoke(segID uint64) {
	s.replyMu.Lock()
	if s.conn != nil {
		s.pushes = append(s.pushes, segID)
	}
	s.replyMu.Unlock()
}

// ackRevoke records the client's Trevokeack (advisory: the revoked flag
// is the hard edge of the protocol).
func (srv *Server) ackRevoke(segID uint64) {
	if seg, _ := lookupSegment(segID); seg != nil {
		seg.acked.Store(true)
	}
	srv.stats.revokeAcks.Add(1)
}

// ActiveLeases reports the number of outstanding leases — zero after
// Close, which the served crash campaign asserts: a lease must not
// survive its server generation.
func (srv *Server) ActiveLeases() int64 { return srv.nLeases.Load() }
