package splitfs

import (
	"math"
	"strings"

	"splitfs/internal/ext4dax"
	"splitfs/internal/vfs"
)

// Metadata operations pass through to K-Split (§3.3), with U-Split
// bookkeeping layered on top: attribute-cache maintenance, mmap-cache
// teardown on unlink, and — in sync and strict mode, where a metadata
// operation is durable when it returns (Table 3) — the operation's redo
// record in the op log: one record and one fence, appended after the
// K-Split call succeeded, instead of a journal commit (stampedMeta).

// logMeta appends the redo record of a metadata operation that stampedMeta
// gave a sequence number; seq 0 means there is nothing to log. Caller
// holds wmu.
func (fs *FS) logMeta(r metaRecord) {
	if r.seq != 0 {
		fs.metaBuf = r.appendTo(fs.metaBuf[:0])
		fs.appendLog(fs.metaBuf)
	}
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, perm uint32) error {
	clean := vfs.CleanPath(path)
	unlock, err := fs.lockMeta(metaRecordBytes(len(clean)))
	if err != nil {
		return err
	}
	defer unlock()
	fs.bookkeep()
	var ino uint64
	seq, err := fs.stampedMeta(func(b *ext4dax.Batch, _ uint64) (bool, error) {
		var err error
		ino, err = fs.kfs.MkdirIno(b, path, perm)
		return true, err
	})
	if err != nil {
		return err
	}
	fs.logMeta(metaRecord{kind: metaMkdir, seq: seq, ino: ino, path: clean})
	return nil
}

// Unlink implements vfs.FileSystem. Cached mappings are unmapped — the
// reason unlink is U-Split's most expensive call (Table 6: 14.60 µs
// strict vs 8.60 µs on ext4 DAX). Its cost is U-Split's bookkeeping, one
// crossing into K-Split's unlink (which reports the inode it removed, so
// nothing is stat'ed first, as with Rename), one munmap per cached window
// of that inode and, in sync and strict mode, one redo record and fence.
func (fs *FS) Unlink(path string) error {
	clean := vfs.CleanPath(path)
	unlock, err := fs.lockMeta(metaRecordBytes(len(clean)))
	if err != nil {
		return err
	}
	defer unlock()
	fs.bookkeep()
	var ino uint64
	seq, err := fs.stampedMeta(func(b *ext4dax.Batch, _ uint64) (bool, error) {
		var err error
		ino, err = fs.kfs.UnlinkIno(b, clean)
		return true, err
	})
	if err != nil {
		return err
	}
	// All cache teardown happens after the kernel unlink, and the attrs
	// delete comes after retireIno's fs.mu acquisition. Ordering is what
	// makes a racing OpenFile harmless: its Linked() check and its
	// files/attrs inserts share one fs.mu critical section, so the insert
	// either precedes retireIno (and is swept by it and by the attrs
	// delete below) or follows it — in which case the open observed the
	// dead inode, Linked() failed, and nothing was cached. Mappings get
	// the same treatment from mmapCache.get's insert-time Linked() check.
	// So no stale description, attribute, or mapping can survive to serve
	// a recycled inode number. The inode torn down is the one K-Split
	// unlinked, so a rename racing this call cannot swap it for another.
	//
	// Unlinked while open: the description leaves the table but keeps its
	// staged overlay — the orphan inode stays readable and writable
	// through open handles (POSIX), and the close-time relink into it is
	// harmless because its blocks free with it.
	fs.retireIno(ino)
	fs.amu.Lock()
	delete(fs.attrs, clean)
	fs.amu.Unlock()
	fs.mmaps.drop(ino)
	fs.logMeta(metaRecord{kind: metaUnlink, seq: seq, path: clean})
	return nil
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	clean := vfs.CleanPath(path)
	unlock, err := fs.lockMeta(metaRecordBytes(len(clean)))
	if err != nil {
		return err
	}
	defer unlock()
	fs.bookkeep()
	seq, err := fs.stampedMeta(func(b *ext4dax.Batch, _ uint64) (bool, error) { return true, fs.kfs.RmdirIn(b, clean) })
	if err != nil {
		return err
	}
	// Drop the cached attributes after the kernel rmdir (the same
	// ordering rule Unlink follows), or a later Stat would revive the
	// removed directory from the cache. Directories have no ofile or
	// mapping, so the attrs entry is the only cache to sweep.
	fs.amu.Lock()
	delete(fs.attrs, clean)
	fs.amu.Unlock()
	fs.logMeta(metaRecord{kind: metaRmdir, seq: seq, path: clean})
	return nil
}

// retireIno removes the open-file table entry for an inode whose on-disk
// inode is being freed (unlink, rename-over-target). Open handles keep
// working through their ofile pointer; the table must stop resolving the
// ino so that a recycled inode number gets a fresh description instead of
// the stale one (whose kernel handle points at the freed inode). Returns
// the retired ofile, if any.
func (fs *FS) retireIno(ino uint64) *ofile {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of := fs.files[ino]
	if of != nil {
		delete(fs.files, ino)
	}
	return of
}

// Rename implements vfs.FileSystem.
//
// Neither endpoint is stat'ed: K-Split's rename walks both paths anyway
// and reports the inode it moved and the one it replaced, and what U-Split
// has to flush first it finds in its own caches — a path it has never
// opened has nothing staged here.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldClean, newClean := vfs.CleanPath(oldPath), vfs.CleanPath(newPath)
	if fs.mode != POSIX && len(oldClean) > math.MaxUint16 {
		// The redo record splits its two paths at a 16-bit length.
		return vfs.WrapPath("rename", oldPath, vfs.ErrInval)
	}
	unlock, err := fs.lockMeta(metaRecordBytes(len(oldClean) + len(newClean)))
	if err != nil {
		return err
	}
	defer unlock()
	fs.bookkeep()
	// Flush staged state of both endpoints so the kernel sees final
	// contents.
	for _, of := range []*ofile{fs.openAt(oldClean), fs.openAt(newClean)} {
		if of == nil {
			continue
		}
		of.mu.Lock()
		var err error
		if len(of.staged) > 0 {
			err = fs.relinkLocked(of)
		}
		of.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Caches are updated only after the kernel rename succeeds; a failed
	// rename must not leave attrs describing a path that does not exist.
	var moved vfs.DirEntry
	var replaced uint64
	seq, err := fs.stampedMeta(func(b *ext4dax.Batch, _ uint64) (bool, error) {
		var err error
		moved, replaced, err = fs.kfs.RenameReplacing(b, oldClean, newClean)
		return true, err
	})
	if err != nil {
		return err
	}
	fs.repath(oldClean, newClean, moved)
	// The replaced destination's inode is freed by the rename: retire its
	// open-file entry and mappings so a recycled inode number cannot
	// resolve to the stale description or stale mappings.
	if replaced != 0 {
		fs.retireIno(replaced)
		fs.mmaps.drop(replaced)
	}
	fs.logMeta(metaRecord{kind: metaRename, seq: seq, path: oldClean, path2: newClean})
	return nil
}

// repath moves what U-Split keeps by path — cached attributes, and the
// paths open descriptions cache them under — from oldClean to newClean
// after K-Split renamed moved; when that is a directory, everything kept
// for a path below it moves with it. openAt and setAttrSize depend on it:
// a key left behind hides a file's staged data from a later rename's
// flush, or comes to name whatever is created at the old path next.
func (fs *FS) repath(oldClean, newClean string, moved vfs.DirEntry) {
	below := func(p string) bool { return moved.IsDir && strings.HasPrefix(p, oldClean+"/") }
	fs.amu.Lock()
	// The destination's old attributes are wrong either way: replaced by
	// the source's if cached, gone if not.
	delete(fs.attrs, newClean)
	if info, ok := fs.attrs[oldClean]; ok {
		delete(fs.attrs, oldClean)
		if info.Ino == moved.Ino {
			fs.attrs[newClean] = info
		}
	}
	if moved.IsDir {
		attrs := make(map[string]vfs.FileInfo, len(fs.attrs))
		for p, info := range fs.attrs {
			if below(p) {
				p = newClean + p[len(oldClean):]
			}
			attrs[p] = info
		}
		fs.attrs = attrs
	}
	fs.amu.Unlock()
	// An open ofile keeps working through its kernel handle; its path is
	// what its relinks file its size under in the attribute cache.
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if !moved.IsDir {
		if of := fs.files[moved.Ino]; of != nil {
			of.mu.Lock()
			of.path = newClean
			of.mu.Unlock()
		}
		return
	}
	for _, of := range fs.files {
		of.mu.Lock()
		if below(of.path) {
			of.path = newClean + of.path[len(oldClean):]
		}
		of.mu.Unlock()
	}
}

// openAt returns the open-file description of the file U-Split last saw at
// a cleaned path, or nil: the attribute cache names the inode (every open
// caches its file's attributes, and rename and unlink keep the cache's
// paths current), the open-file table the description.
func (fs *FS) openAt(clean string) *ofile {
	fs.amu.Lock()
	info, ok := fs.attrs[clean]
	fs.amu.Unlock()
	if !ok {
		return nil
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.files[info.Ino]
}

// Stat implements vfs.FileSystem, served from the attribute cache when
// possible (§3.5: cached attributes answer later calls).
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.bookkeep()
	clean := vfs.CleanPath(path)
	fs.amu.Lock()
	info, ok := fs.attrs[clean]
	fs.amu.Unlock()
	if ok {
		fs.mu.RLock()
		of := fs.files[info.Ino]
		fs.mu.RUnlock()
		if of != nil {
			of.mu.RLock()
			if of.ino == info.Ino { // not recycled for another file since
				info.Size = of.size
			}
			of.mu.RUnlock()
		}
		return info, nil
	}
	// Cache fill happens entirely under amu so it cannot interleave with
	// an Unlink's attribute delete (which runs after the kernel unlink,
	// also under amu): a stat that precedes the unlink is swept by the
	// delete, one that follows it fails and caches nothing.
	fs.amu.Lock()
	defer fs.amu.Unlock()
	if info, ok := fs.attrs[clean]; ok {
		return info, nil // filled by a racing stat
	}
	info, err := fs.kfs.Stat(clean)
	if err != nil {
		return info, err
	}
	fs.attrs[clean] = info
	return info, nil
}

// ReadDir implements vfs.FileSystem, hiding U-Split's internal staging
// and log files.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.bookkeep()
	ents, err := fs.kfs.ReadDir(path)
	if err != nil {
		return nil, err
	}
	out := ents[:0]
	for _, e := range ents {
		if vfs.CleanPath(path) == "/" &&
			(e.Name == vfs.BaseName(stagingDir) || e.Name == vfs.BaseName(oplogDir)) {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}
