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
// For a parked file (the set beside the table: closed read-only handles'
// files, kept open by path) a stale key would be wrong, so unpark checks
// the inode first (DESIGN.md, "Parked read-only handles").

import (
	"slices"

	"splitfs/internal/vfs"
)

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
	key    nameKey
	seg    *leaseSegment // outstanding lease on the handle, nil if none
	rdonly bool          // opened plain O_RDONLY: its file may park at close
	ino    uint64        // inode its file was unparked as, 0 if unknown
}

const maxParked = 16 // bound on the parked set

// parkedFile is a closed read-only handle's backend file, kept open for
// the next read-only open of path. ino is the file's inode once an
// unpark has asked the file (0 before): an open file keeps its inode.
type parkedFile struct {
	path string
	f    vfs.File
	ino  uint64
}

// nameOpen records a handle opened (or re-opened at resume) at path, on
// a file of inode ino if unpark gave it (0 otherwise). Any open but a
// plain read-only one then closes the files parked at path: with its row
// in, nothing parks there beside it, so a writer's close stays the
// backend file's last close.
func (srv *Server) nameOpen(s *Session, h uint64, path string, rdonly bool, ino uint64) {
	srv.nameMu.Lock()
	srv.names[handleRef{s, h}] = nameEntry{key: nameKey{path: path}, rdonly: rdonly, ino: ino}
	srv.nameMu.Unlock()
	if !rdonly {
		srv.evict(path, true)
	}
}

// nameClose forgets a handle that is closing and returns its lease, if
// any, for the caller to revoke. f is the handle's backend file (nil
// while a dup holds it): nameClose parks it, and reports so, if the
// handle was read-only, every handle open at its path is too and the set
// has room. Unparked, the caller closes f.
func (srv *Server) nameClose(s *Session, h uint64, f vfs.File) (seg *leaseSegment, parked bool) {
	ref := handleRef{s, h}
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	e := srv.names[ref]
	delete(srv.names, ref)
	if f == nil || !e.rdonly || e.key.path == "" || len(srv.parked) == maxParked {
		return e.seg, false
	}
	for _, o := range srv.names {
		if !o.rdonly && o.key.path == e.key.path {
			return e.seg, false
		}
	}
	srv.parked = append(srv.parked, parkedFile{e.key.path, f, e.ino})
	return e.seg, true
}

// unpark takes a file parked at path, with its inode, for an open of
// path with flag, or returns nil; only a plain read-only open takes one.
// Its offset needs no rewind: the client keeps the offset. The file goes
// out only while path still names its inode: a change made behind the
// server's back, or a close racing a rename, leaves a key stale, and the
// file is closed instead. The file's own Stat runs at its first unpark
// only; the inode rides along after.
func (srv *Server) unpark(path string, flag int) (vfs.File, uint64) {
	if flag != vfs.O_RDONLY {
		return nil, 0
	}
	srv.nameMu.Lock()
	i := slices.IndexFunc(srv.parked, func(p parkedFile) bool { return p.path == path })
	if i < 0 {
		srv.nameMu.Unlock()
		return nil, 0
	}
	p := srv.parked[i]
	srv.parked = slices.Delete(srv.parked, i, i+1)
	srv.nameMu.Unlock()
	fi, err := srv.fs.Stat(path)
	if err == nil && p.ino == 0 {
		var own vfs.FileInfo
		own, err = p.f.Stat()
		p.ino = own.Ino
	}
	if err == nil && fi.Ino == p.ino {
		return p.f, p.ino
	}
	p.f.Close()
	return nil, 0
}

// evict closes the files parked below path, and at path if self.
func (srv *Server) evict(path string, self bool) {
	var out []vfs.File
	srv.nameMu.Lock()
	srv.parked = slices.DeleteFunc(srv.parked, func(p parkedFile) bool {
		if self && p.path == path || under(p.path, path) {
			out = append(out, p.f)
			return true
		}
		return false
	})
	srv.nameMu.Unlock()
	for _, f := range out {
		f.Close()
	}
}

// under reports whether p lies below the directory dir.
func under(p, dir string) bool {
	return len(p) > len(dir) && p[len(dir)] == '/' && p[:len(dir)] == dir
}

// renamed re-keys the table after a successful rename: the handles at
// newPath, if it was replaced, become orphans, and those at oldPath and
// below it move under newPath. The files parked at newPath and below
// oldPath are closed, and those at oldPath move to newPath.
func (srv *Server) renamed(oldPath, newPath string) {
	if oldPath == newPath {
		return // renaming a name onto itself changes nothing
	}
	srv.evict(newPath, true)
	srv.evict(oldPath, false)
	srv.nameMu.Lock()
	defer srv.nameMu.Unlock()
	for i := range srv.parked {
		if srv.parked[i].path == oldPath {
			srv.parked[i].path = newPath
		}
	}
	var orphan uint64
	for ref, e := range srv.names {
		switch p := e.key.path; {
		case p == newPath:
			e.key = srv.orphanKey(&orphan)
		case p == oldPath:
			e.key.path = newPath
		case under(p, oldPath):
			e.key.path = newPath + p[len(oldPath):]
		default:
			continue
		}
		srv.names[ref] = e
	}
}

// unlinked makes the handles at a path just unlinked (or a directory
// just removed) orphans, then closes the files parked at it or below it.
func (srv *Server) unlinked(path string) {
	srv.nameMu.Lock()
	var orphan uint64
	for ref, e := range srv.names {
		if e.key.path == path {
			e.key = srv.orphanKey(&orphan)
			srv.names[ref] = e
		}
	}
	srv.nameMu.Unlock()
	srv.evict(path, true)
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
