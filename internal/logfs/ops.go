package logfs

import (
	"sort"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

const blockSize = sim.BlockSize

// OpenFile implements vfs.FileSystem.
func (fs *FS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return nil, vfs.WrapPath("open", path, err)
	}
	in, exists := parent.children[base]
	switch {
	case exists:
		if flag&vfs.O_CREATE != 0 && flag&vfs.O_EXCL != 0 {
			return nil, vfs.WrapPath("open", path, vfs.ErrExist)
		}
		if in.isDir && vfs.Writable(flag) {
			return nil, vfs.WrapPath("open", path, vfs.ErrIsDir)
		}
		if flag&vfs.O_TRUNC != 0 && vfs.Writable(flag) && in.size > 0 {
			fs.truncateLocked(in, 0)
		}
	case flag&vfs.O_CREATE != 0:
		fs.stats.MetaOps++
		in = &inode{ino: fs.nextIno, nlink: 1}
		fs.nextIno++
		parent.children[base] = in
		fs.inodes[in.ino] = in
		fs.appendRecord(encCreate(in.ino, false, vfs.CleanPath(path)))
	default:
		return nil, vfs.WrapPath("open", path, vfs.ErrNotExist)
	}
	f := &File{fs: fs, in: in}
	f.Open(f, path, flag)
	return f, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, perm uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.MetaOps++
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("mkdir", path, err)
	}
	if _, ok := parent.children[base]; ok {
		return vfs.WrapPath("mkdir", path, vfs.ErrExist)
	}
	in := &inode{ino: fs.nextIno, isDir: true, nlink: 2, children: map[string]*inode{}}
	fs.nextIno++
	parent.children[base] = in
	parent.nlink++
	fs.inodes[in.ino] = in
	fs.appendRecord(encCreate(in.ino, true, vfs.CleanPath(path)))
	return nil
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.MetaOps++
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("unlink", path, err)
	}
	in, ok := parent.children[base]
	if !ok {
		return vfs.WrapPath("unlink", path, vfs.ErrNotExist)
	}
	if in.isDir {
		return vfs.WrapPath("unlink", path, vfs.ErrIsDir)
	}
	delete(parent.children, base)
	delete(fs.inodes, in.ino)
	fs.freeExtents(in)
	fs.appendRecord(encUnlink(vfs.CleanPath(path), false))
	return nil
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.MetaOps++
	parent, base, err := fs.resolveDir(path)
	if err != nil {
		return vfs.WrapPath("rmdir", path, err)
	}
	in, ok := parent.children[base]
	if !ok {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotExist)
	}
	if !in.isDir {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotDir)
	}
	if len(in.children) != 0 {
		return vfs.WrapPath("rmdir", path, vfs.ErrNotEmpty)
	}
	delete(parent.children, base)
	delete(fs.inodes, in.ino)
	parent.nlink--
	fs.appendRecord(encUnlink(vfs.CleanPath(path), true))
	return nil
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.stats.MetaOps++
	op, ob, err := fs.resolveDir(oldPath)
	if err != nil {
		return vfs.WrapPath("rename", oldPath, err)
	}
	in, ok := op.children[ob]
	if !ok {
		return vfs.WrapPath("rename", oldPath, vfs.ErrNotExist)
	}
	np, nb, err := fs.resolveDir(newPath)
	if err != nil {
		return vfs.WrapPath("rename", newPath, err)
	}
	if victim, ok := np.children[nb]; ok {
		if victim.isDir {
			return vfs.WrapPath("rename", newPath, vfs.ErrIsDir)
		}
		fs.freeExtents(victim)
		delete(fs.inodes, victim.ino)
	}
	delete(op.children, ob)
	np.children[nb] = in
	fs.appendRecord(encRename(vfs.CleanPath(oldPath), vfs.CleanPath(newPath)))
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

// ReadDir implements vfs.FileSystem.
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
	out := make([]vfs.DirEntry, 0, len(in.children))
	for name, child := range in.children {
		out = append(out, vfs.DirEntry{Name: name, Ino: child.ino, IsDir: child.isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// truncateLocked shrinks/grows a file. Caller holds fs.mu.
func (fs *FS) truncateLocked(in *inode, size int64) {
	if size < in.size {
		for _, e := range shrinkTo(in, size) {
			fs.bmp.Free(pmem.SrcForeground, e)
		}
	}
	in.size = size
	fs.appendRecord(encTruncate(in.ino, size))
}

// Checkpoint forces a snapshot + log reset (exposed for tests and the
// shutdown path).
func (fs *FS) Checkpoint() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.checkpointLocked()
}
