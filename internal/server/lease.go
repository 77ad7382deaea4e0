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
// opens, rename, unlink) revoke outstanding leases on the inode before
// executing — the revoker sets the flag, then takes the segment lock
// write-side to drain readers pinned under the read side, then queues a
// Trevoke message on the holder's session, which writes it just ahead of
// its next reply: the client learns at its next exchange rather than on
// its next validation failure.
//
// Lock hierarchy: sessexec (a session's executor lock, Session.execMu)
// is outermost — a request grants and revokes from inside it, and a
// revocation reaches another session only by queuing a push under that
// session's replyMu: never its executor lock, and never a write to its
// connection, which could block the revoker on an idle client that is
// not reading; leasetab (the server's ino→segment
// index) is taken on its own, never inside a segment or backend lock;
// leaseseg is held read-side across backend data operations, hence
// ordered outside the splitfs writer lock.
//
// +lockrank:order sessexec < leasetab
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
	ino     uint64
	sess    *Session
	handle  uint64
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

// grantLease builds and indexes a lease for the session's open handle.
// Caller is the session's executor (tLease).
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
	seg := &leaseSegment{
		ino: fi.Ino, sess: s, handle: handle,
		file: f, m: m, epoch: epoch, size: fi.Size, extents: exts,
	}
	registerSegment(seg)
	srv.leaseMu.Lock()
	byIno := srv.leases[seg.ino]
	if byIno == nil {
		byIno = map[uint64]*leaseSegment{}
		srv.leases[seg.ino] = byIno
	}
	byIno[seg.id] = seg
	if s.leases == nil {
		s.leases = map[uint64]*leaseSegment{}
	}
	s.leases[seg.id] = seg
	srv.leaseMu.Unlock()
	srv.nLeases.Add(1)
	srv.stats.leaseGrants.Add(1)
	return seg, nil
}

// leasesActive reports whether any lease is outstanding. The revocation
// hooks in Session.execute are gated on it so that lease-free serving
// performs exactly the operation sequence it did before leases existed
// (the determinism the crash differential pins).
func (srv *Server) leasesActive() bool { return srv.nLeases.Load() > 0 }

// revokeIno revokes every outstanding lease on an inode. Called by the
// destructive-operation hooks before the operation executes.
func (srv *Server) revokeIno(ino uint64) {
	srv.revokeWhere(func(seg *leaseSegment) bool { return seg.ino == ino })
}

// revokeHandleLeases revokes leases granted on one session handle
// (Tclose: the backing file is about to be closed, which may free an
// orphan's blocks).
func (srv *Server) revokeHandleLeases(s *Session, handle uint64) {
	srv.revokeWhere(func(seg *leaseSegment) bool {
		return seg.sess == s && seg.handle == handle
	})
}

// revokeSessionLeases revokes everything a session holds. Teardown runs
// it before closing the handle table, so no lease survives its session
// — and, since Server.Close tears every session down, no lease survives
// a server generation.
func (srv *Server) revokeSessionLeases(s *Session) {
	srv.revokeWhere(func(seg *leaseSegment) bool { return seg.sess == s })
}

// revokeWhere removes matching segments from the index under leaseMu,
// then revokes them with no lease-table lock held (the drain must not
// nest inside leaseMu: a reader pinned under seg.mu never takes
// leaseMu, but keeping the scopes disjoint keeps the hierarchy flat).
func (srv *Server) revokeWhere(match func(*leaseSegment) bool) {
	if srv.nLeases.Load() == 0 {
		return
	}
	var victims []*leaseSegment
	srv.leaseMu.Lock()
	for ino, byIno := range srv.leases {
		for id, seg := range byIno {
			if !match(seg) {
				continue
			}
			delete(byIno, id)
			if seg.sess.leases != nil {
				delete(seg.sess.leases, id)
			}
			victims = append(victims, seg)
		}
		if len(byIno) == 0 {
			delete(srv.leases, ino)
		}
	}
	srv.leaseMu.Unlock()
	for _, seg := range victims {
		srv.revokeSegment(seg)
	}
}

// revokeSegment performs the revocation protocol on one segment: flag,
// drain, notify. Idempotent.
func (srv *Server) revokeSegment(seg *leaseSegment) {
	if seg.revoked.Swap(true) {
		return
	}
	// Drain: an in-flight leased read or write holds seg.mu read-side;
	// once the write side is acquired every pinned operation has
	// completed, and any later one observes the revoked flag.
	seg.mu.Lock()
	seg.mu.Unlock() //nolint — empty critical section IS the drain barrier
	srv.nLeases.Add(-1)
	srv.stats.leaseRevokes.Add(1)
	seg.sess.pushRevoke(seg.id)
	unregisterSegment(seg.id)
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
