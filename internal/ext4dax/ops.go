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
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	f, err := fs.openLocked(path, flag)
	return f, vfs.WrapPath("open", path, err)
}

func (fs *FS) openLocked(path string, flag int) (*File, error) {
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return nil, err
	}
	var in *inode
	if de, ok := parent.entries[base]; ok {
		if flag&vfs.O_CREATE != 0 && flag&vfs.O_EXCL != 0 {
			return nil, vfs.ErrExist
		}
		in = fs.icache[de.ino]
		if in == nil {
			return nil, vfs.ErrNotExist
		}
		if in.isDir && vfs.Writable(flag) {
			return nil, vfs.ErrIsDir
		}
		if flag&vfs.O_TRUNC != 0 && vfs.Writable(flag) && in.size > 0 {
			in.mu.Lock()
			fs.truncateLocked(in, 0)
			in.mu.Unlock()
		}
	} else {
		if flag&vfs.O_CREATE == 0 {
			return nil, vfs.ErrNotExist
		}
		fs.stats.metaOps.Add(1)
		in, err = fs.allocInode(false)
		if err != nil {
			return nil, err
		}
		fs.writeInode(in)
		if err := fs.addDirent(parent, base, in.ino, false); err != nil {
			return nil, err
		}
	}
	fs.maybeCommit()
	in.openCnt++
	return &File{fs: fs, in: in, flag: flag, path: vfs.CleanPath(path)}, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, perm uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.metaOps.Add(1)
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("mkdir", path, err)
	}
	if _, ok := parent.entries[base]; ok {
		return vfs.WrapPath("mkdir", path, vfs.ErrExist)
	}
	in, err := fs.allocInode(true)
	if err != nil {
		return vfs.WrapPath("mkdir", path, err)
	}
	fs.writeInode(in)
	if err := fs.addDirent(parent, base, in.ino, true); err != nil {
		return vfs.WrapPath("mkdir", path, err)
	}
	parent.mu.Lock()
	parent.nlink++
	parent.mu.Unlock()
	fs.writeInode(parent)
	fs.maybeCommit()
	return nil
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
	if _, err := fs.removeDirent(parent, base); err != nil {
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
	if _, err := fs.removeDirent(parent, base); err != nil {
		return vfs.WrapPath("rmdir", path, err)
	}
	fs.freeInode(in)
	parent.mu.Lock()
	parent.nlink--
	parent.mu.Unlock()
	fs.writeInode(parent)
	fs.maybeCommit()
	return nil
}

// Rename implements vfs.FileSystem. The destination is replaced if it
// exists (files only).
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.metaOps.Add(1)
	srcParent, srcBase, err := fs.resolveDir(oldPath)
	if err != nil {
		return vfs.WrapPath("rename", oldPath, err)
	}
	de, ok := srcParent.entries[srcBase]
	if !ok {
		return vfs.WrapPath("rename", oldPath, vfs.ErrNotExist)
	}
	dstParent, dstBase, err := fs.resolveDir(newPath)
	if err != nil {
		return vfs.WrapPath("rename", newPath, err)
	}
	if old, ok := dstParent.entries[dstBase]; ok {
		if old.isDir {
			return vfs.WrapPath("rename", newPath, vfs.ErrIsDir)
		}
		if _, err := fs.removeDirent(dstParent, dstBase); err != nil {
			return vfs.WrapPath("rename", newPath, err)
		}
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
	if _, err := fs.removeDirent(srcParent, srcBase); err != nil {
		return vfs.WrapPath("rename", oldPath, err)
	}
	if err := fs.addDirent(dstParent, dstBase, de.ino, de.isDir); err != nil {
		return vfs.WrapPath("rename", newPath, err)
	}
	fs.maybeCommit()
	return nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	in, err := fs.resolve(vfs.CleanPath(path))
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
	in, err := fs.resolve(vfs.CleanPath(path))
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
	for _, de := range in.entries {
		out = append(out, vfs.DirEntry{Name: de.name, Ino: de.ino, IsDir: de.isDir})
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
