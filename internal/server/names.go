package server

// Name table: where the file behind every open server-side handle sits
// now, kept from the requests the server itself executes, together
// with the lease granted on the handle. Revocation is keyed on it
// (lease.go): a rename, an unlink or a writable open of a path revokes
// the leases of the handles known by that path, a truncate those of the
// handles known by the truncated handle's key. The conflict is found in
// the server's own memory, the way Linux's break_lease finds it in the
// lookup the conflicting call already made, instead of by a second
// backend lookup charged to the tenant who never asked for it.
//
// Keys follow the namespace. A rename moves the entries at its source,
// and every entry below it, to the destination; an unlink, or a rename
// onto an existing name, makes the entries at the lost name orphans, and
// the orphans one operation makes share one orphan key, so they still
// stand for one inode. vfs has no hard links, so while every namespace
// change goes through the server a key names exactly one inode and the
// revoked set is the one an inode-keyed lookup gives. A change the table
// does not see — made on the backend behind the server's back, or by
// two sessions racing on one name — can leave a key stale: a revocation
// then comes late or is spurious, never wrong (DESIGN.md, "Revocation").

// handleRef names one open handle: its session and wire handle ID.
type handleRef struct {
	s *Session
	h uint64
}

// nameKey is what a handle's file is known by: the resolved path
// (Session.resolve) it sits at, or — once an unlink or a replacing
// rename took that name — the orphan group it joined then, with no path.
type nameKey struct {
	path   string
	orphan uint64
}

// nameEntry is one open handle's row. A handle holds at most one lease:
// a re-grant supersedes the segment before it (grantLease).
type nameEntry struct {
	key nameKey
	seg *leaseSegment // outstanding lease on the handle, nil if none
}

// nameOpen records a handle opened (or re-opened at resume) at path.
func (srv *Server) nameOpen(s *Session, h uint64, path string) {
	srv.nameMu.Lock()
	srv.names[handleRef{s, h}] = nameEntry{key: nameKey{path: path}}
	srv.nameMu.Unlock()
}

// nameClose forgets a handle that is closing and returns its lease, if
// any, for the caller to revoke.
func (srv *Server) nameClose(s *Session, h uint64) *leaseSegment {
	ref := handleRef{s, h}
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	seg := srv.names[ref].seg
	delete(srv.names, ref)
	return seg
}

// renamed re-keys the table after a successful rename: the handles at
// newPath, if it was replaced, become orphans, and those at oldPath and
// below it move under newPath.
func (srv *Server) renamed(oldPath, newPath string) {
	if oldPath == newPath {
		return // renaming a name onto itself changes nothing
	}
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	var orphan uint64
	for ref, e := range srv.names {
		switch p := e.key.path; {
		case p == newPath:
			e.key = srv.orphanKey(&orphan)
		case p == oldPath:
			e.key.path = newPath
		case len(p) > len(oldPath) && p[len(oldPath)] == '/' && p[:len(oldPath)] == oldPath:
			e.key.path = newPath + p[len(oldPath):]
		default:
			continue
		}
		srv.names[ref] = e
	}
}

// unlinked makes the handles at a path just unlinked (or a directory
// just removed) orphans.
func (srv *Server) unlinked(path string) {
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	var orphan uint64
	for ref, e := range srv.names {
		if e.key.path == path {
			e.key = srv.orphanKey(&orphan)
			srv.names[ref] = e
		}
	}
}

// orphanKey returns the key of the orphans one operation makes, issuing
// it at the first (*id == 0). The caller holds nameMu.
func (srv *Server) orphanKey(id *uint64) nameKey {
	if *id == 0 {
		srv.orphans++
		*id = srv.orphans
	}
	return nameKey{orphan: *id}
}

// handleKey returns what an open handle is known by.
func (srv *Server) handleKey(s *Session, h uint64) nameKey {
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	return srv.names[handleRef{s, h}].key
}
