package ext4dax

import (
	"sort"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// infoOf is stat(2). Blocks is, like st_blocks, every block the inode
// holds: data and the extent-overflow blocks a fragmented file's inode
// chains. A staging file relink has moved blocks out of is exactly such a
// file, and FuzzRelinkModel's block conservation (free + held == total at
// every commit) has to see them.
func (fs *FS) infoOf(in *inode) vfs.FileInfo {
	return vfs.FileInfo{
		Ino:    in.ino,
		Size:   in.size,
		Blocks: in.blocks + int64(len(in.overflow)),
		IsDir:  in.isDir,
		Nlink:  in.nlink,
	}
}

// OpenFile implements vfs.FileSystem.
func (fs *FS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	f := new(File)
	if err := fs.OpenInto(f, path, flag, perm); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenInto is OpenFile into a handle the caller owns: f, zero or closed,
// becomes the open handle. U-Split keeps one inside every open-file
// description it recycles, so an open of its allocates no handle. f's
// MapEpoch may run concurrently with the open (a lease holder of the
// handle's previous life); every other method must not.
func (fs *FS) OpenInto(f *File, path string, flag int, perm uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	in, created, err := fs.openLocked(path, flag)
	if err != nil {
		return vfs.WrapPath("open", path, err)
	}
	f.fs, f.in, f.gen, f.flag, f.path, f.created, f.pos = fs, in, in.gen, flag, vfs.CleanPath(path), created, 0
	f.epochIn.Store(in)
	f.closed.Store(false)
	return nil
}

// openLocked resolves, and with O_CREATE makes, the inode an open names,
// and counts the handle the caller builds for it. Caller holds fs.mu.
func (fs *FS) openLocked(path string, flag int) (in *inode, created bool, err error) {
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return nil, false, err
	}
	if de, ok := parent.entries[base]; ok {
		if flag&vfs.O_CREATE != 0 && flag&vfs.O_EXCL != 0 {
			return nil, false, vfs.ErrExist
		}
		in = fs.icache[de.ino]
		if in == nil {
			return nil, false, vfs.ErrNotExist
		}
		if in.isDir && vfs.Writable(flag) {
			return nil, false, vfs.ErrIsDir
		}
		if flag&vfs.O_TRUNC != 0 && vfs.Writable(flag) && in.size > 0 {
			in.mu.Lock()
			fs.truncateLocked(in, 0)
			in.mu.Unlock()
		}
	} else {
		if flag&vfs.O_CREATE == 0 {
			return nil, false, vfs.ErrNotExist
		}
		fs.stats.metaOps.Add(1)
		in, err = fs.createLocked(parent, base, false, 0)
		if err != nil {
			return nil, false, err
		}
		created = true
	}
	fs.maybeCommit()
	in.openCnt++
	return in, created, nil
}

// createLocked makes a new file or directory named base in parent. want is
// the inode number it must get (Recreate), or 0 for the allocator's choice.
// Caller holds fs.mu.
func (fs *FS) createLocked(parent *inode, base string, isDir bool, want uint64) (*inode, error) {
	in, err := fs.allocInode(isDir, want)
	if err != nil {
		return nil, err
	}
	fs.writeInode(in)
	if err := fs.addDirent(parent, base, in.ino, isDir); err != nil {
		return nil, err
	}
	if isDir {
		fs.setLinks(parent, parent.nlink+1)
	}
	return in, nil
}

// setLinks gives a directory the link count n — a child directory, whose
// ".." names it, came or went — and writes it back. Caller holds fs.mu.
func (fs *FS) setLinks(dir *inode, n uint32) {
	dir.mu.Lock()
	dir.nlink = n
	dir.mu.Unlock()
	fs.writeInode(dir)
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, perm uint32) error {
	_, err := fs.MkdirIno(path, perm)
	return err
}

// MkdirIno is Mkdir that also reports the new directory's inode number,
// which U-Split logs with the operation (see Recreate).
func (fs *FS) MkdirIno(path string, perm uint32) (uint64, error) {
	ino, err := fs.createAt(path, true, 0)
	return ino, vfs.WrapPath("mkdir", path, err)
}

// Recreate is recovery's create: it makes the file or directory a logged
// create or mkdir made, under the inode number that operation was given,
// so that everything logged after it — by inode number — still names its
// target, and so that a replayed sequence of creates reproduces the
// crashed run's allocations instead of colliding with them. (ext4's
// fast-commit replay re-creates inodes by number for the same reason.)
// The path must not exist and the number must be free.
func (fs *FS) Recreate(path string, ino uint64, isDir bool) error {
	_, err := fs.createAt(path, isDir, ino)
	return vfs.WrapPath("recreate", path, err)
}

// createAt is mkdir(2) and the exclusive create behind Recreate.
func (fs *FS) createAt(path string, isDir bool, want uint64) (uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.metaOps.Add(1)
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return 0, err
	}
	if _, ok := parent.entries[base]; ok {
		return 0, vfs.ErrExist
	}
	in, err := fs.createLocked(parent, base, isDir, want)
	if err != nil {
		return 0, err
	}
	fs.maybeCommit()
	return in.ino, nil
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.clk.Charge(sim.CatCPU, sim.Ext4UnlinkPathNs)
	fs.stats.metaOps.Add(1)
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("unlink", path, err)
	}
	de, ok := parent.entries[base]
	if !ok {
		return vfs.WrapPath("unlink", path, vfs.ErrNotExist)
	}
	if de.isDir {
		return vfs.WrapPath("unlink", path, vfs.ErrIsDir)
	}
	if err := fs.removeDirent(parent, base); err != nil {
		return vfs.WrapPath("unlink", path, err)
	}
	in := fs.icache[de.ino]
	if in != nil {
		in.mu.Lock()
		in.nlink--
		last := in.nlink == 0
		in.mu.Unlock()
		switch {
		case last && in.openCnt > 0:
			// Unlinked while open (tmpfile pattern): POSIX keeps the
			// inode and its blocks alive until the last close, so open
			// handles keep reading their data and the inode number
			// cannot be recycled underneath them.
			in.orphan = true
		case last:
			fs.freeInode(in)
		default:
			fs.writeInode(in)
		}
	}
	fs.maybeCommit()
	return nil
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.metaOps.Add(1)
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("rmdir", path, err)
	}
	de, ok := parent.entries[base]
	if !ok {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotExist)
	}
	if !de.isDir {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotDir)
	}
	in := fs.icache[de.ino]
	if err := fs.ensureDir(in); err != nil {
		return vfs.WrapPath("rmdir", path, err)
	}
	if len(in.entries) != 0 {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotEmpty)
	}
	if err := fs.removeDirent(parent, base); err != nil {
		return vfs.WrapPath("rmdir", path, err)
	}
	fs.freeInode(in)
	fs.setLinks(parent, parent.nlink-1)
	fs.maybeCommit()
	return nil
}

// Rename implements vfs.FileSystem. The destination is replaced if it
// exists (files only).
func (fs *FS) Rename(oldPath, newPath string) error {
	_, _, err := fs.RenameReplacing(oldPath, newPath)
	return err
}

// RenameReplacing is Rename that also reports what it moved — the source's
// directory entry, under its new name — and the inode number of the file
// it replaced at newPath (0 when there was none): the rename walks both
// paths anyway, so U-Split, which has caches to re-key for the moved inode
// and to retire for a replaced one, need not stat the endpoints first.
func (fs *FS) RenameReplacing(oldPath, newPath string) (moved vfs.DirEntry, replaced uint64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.metaOps.Add(1)
	srcParent, srcBase, err := fs.resolveDir(oldPath)
	if err != nil {
		return moved, 0, vfs.WrapPath("rename", oldPath, err)
	}
	de, ok := srcParent.entries[srcBase]
	if !ok {
		return moved, 0, vfs.WrapPath("rename", oldPath, vfs.ErrNotExist)
	}
	dstParent, dstBase, err := fs.resolveDir(newPath)
	if err != nil {
		return moved, 0, vfs.WrapPath("rename", newPath, err)
	}
	moved = vfs.DirEntry{Name: dstBase, Ino: de.ino, IsDir: de.isDir}
	if old, ok := dstParent.entries[dstBase]; ok {
		if dstParent == srcParent && dstBase == srcBase {
			return moved, 0, nil // onto itself: nothing to do (and nothing to replace)
		}
		if old.isDir {
			return moved, 0, vfs.WrapPath("rename", newPath, vfs.ErrIsDir)
		}
		if err := fs.removeDirent(dstParent, dstBase); err != nil {
			return moved, 0, vfs.WrapPath("rename", newPath, err)
		}
		replaced = old.ino
		if tgt := fs.icache[old.ino]; tgt != nil {
			tgt.mu.Lock()
			tgt.nlink--
			last := tgt.nlink == 0
			tgt.mu.Unlock()
			switch {
			case last && tgt.openCnt > 0:
				tgt.orphan = true // freed at last close, per POSIX
			case last:
				fs.freeInode(tgt)
			default:
				fs.writeInode(tgt)
			}
		}
	}
	if err := fs.removeDirent(srcParent, srcBase); err != nil {
		return moved, 0, vfs.WrapPath("rename", oldPath, err)
	}
	if err := fs.addDirent(dstParent, dstBase, de.ino, de.isDir); err != nil {
		return moved, 0, vfs.WrapPath("rename", newPath, err)
	}
	if de.isDir && srcParent != dstParent {
		// The directory's ".." names its new parent: the link moves with
		// the entry, in the same transaction.
		fs.setLinks(srcParent, srcParent.nlink-1)
		fs.setLinks(dstParent, dstParent.nlink+1)
	}
	fs.maybeCommit()
	return moved, replaced, nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	in, err := fs.resolve(path)
	if err != nil {
		return vfs.FileInfo{}, vfs.WrapPath("stat", path, err)
	}
	return fs.infoOf(in), nil
}

// ReadDir implements vfs.FileSystem; entries are sorted by name.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	in, err := fs.resolve(path)
	if err != nil {
		return nil, vfs.WrapPath("readdir", path, err)
	}
	if !in.isDir {
		return nil, vfs.WrapPath("readdir", path, vfs.ErrNotDir)
	}
	if err := fs.ensureDir(in); err != nil {
		return nil, vfs.WrapPath("readdir", path, err)
	}
	out := make([]vfs.DirEntry, 0, len(in.entries))
	for name, de := range in.entries {
		out = append(out, vfs.DirEntry{Name: name, Ino: de.ino, IsDir: de.isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Sync commits the running metadata transaction and fences outstanding
// data, durably persisting everything. This is the file-system-wide
// analogue of fsync used at shutdown.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.awaitCommittable()
	if err := fs.commitTx(); err != nil {
		return err
	}
	fs.dev.Fence()
	return nil
}
