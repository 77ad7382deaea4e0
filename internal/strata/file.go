package strata

import (
	"io"
	"sync"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open Strata file: a LibFS handle layered over the shared
// file, with reads resolved against the private-log overlay.
type File struct {
	fs     *FS
	shared vfs.File
	ino    uint64
	flag   int
	path   string

	mu     sync.Mutex
	pos    int64
	closed bool
}

var _ vfs.File = (*File)(nil)

// OpenFile implements vfs.FileSystem. Namespace operations pass through
// to the shared area (see package comment).
func (fs *FS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	f, err := fs.shared.OpenFile(path, flag&^vfs.O_TRUNC, perm)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.mu.Lock()
	if flag&vfs.O_TRUNC != 0 && vfs.Writable(flag) {
		fs.flushIno(info.Ino)
		fs.mu.Unlock()
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		fs.mu.Lock()
	}
	fs.mu.Unlock()
	return &File{fs: fs, shared: f, ino: info.Ino, flag: flag, path: vfs.CleanPath(path)}, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, perm uint32) error { return fs.shared.Mkdir(path, perm) }

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	info, err := fs.shared.Stat(path)
	if err == nil {
		fs.mu.Lock()
		fs.flushIno(info.Ino)
		fs.mu.Unlock()
	}
	return fs.shared.Unlink(path)
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error { return fs.shared.Rmdir(path) }

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldPath, newPath string) error {
	if info, err := fs.shared.Stat(oldPath); err == nil {
		fs.mu.Lock()
		fs.flushIno(info.Ino)
		fs.mu.Unlock()
	}
	if info, err := fs.shared.Stat(newPath); err == nil {
		fs.mu.Lock()
		fs.flushIno(info.Ino)
		fs.mu.Unlock()
	}
	return fs.shared.Rename(oldPath, newPath)
}

// Stat implements vfs.FileSystem, accounting for logged appends.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	info, err := fs.shared.Stat(path)
	if err != nil {
		return info, err
	}
	fs.mu.Lock()
	if over := fs.sizeOver[info.Ino]; over > info.Size {
		info.Size = over
	}
	fs.mu.Unlock()
	return info, nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) { return fs.shared.ReadDir(path) }

// Path implements vfs.File.
func (f *File) Path() string { return f.path }

func (f *File) size() int64 {
	info, _ := f.shared.Stat()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if over := f.fs.sizeOver[f.ino]; over > info.Size {
		return over
	}
	return info.Size
}

// Read reads at the handle offset.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the handle offset (EOF with O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	off := f.pos
	if f.flag&vfs.O_APPEND != 0 {
		off = f.size()
	}
	n, err := f.WriteAt(p, off)
	f.pos = off + int64(n)
	return n, err
}

// Seek implements vfs.File.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case vfs.SeekSet:
	case vfs.SeekCur:
		base = f.pos
	case vfs.SeekEnd:
		base = f.size()
	default:
		return 0, vfs.ErrInval
	}
	if base+offset < 0 {
		return 0, vfs.ErrInval
	}
	f.pos = base + offset
	return f.pos, nil
}

// WriteAt appends a record to the private log — a pure user-space
// operation with no kernel trap, synchronously persisted with one fence.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !vfs.Writable(f.flag) {
		return 0, vfs.ErrReadOnly
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dataOff, err := fs.logWrite(f.ino, off, p)
	if err != nil {
		return 0, err
	}
	fs.addInterval(f.ino, interval{off: off, length: int64(len(p)), logOff: dataOff})
	fs.digestIfNeeded()
	return len(p), nil
}

// ReadAt resolves the base content from the shared file, then patches in
// logged writes newest-last (LibFS reads check the update log first).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !vfs.Readable(f.flag) {
		return 0, vfs.ErrInval
	}
	f.fs.clk.Charge(sim.StrataReadPath)
	size := f.size()
	if off >= size {
		return 0, io.EOF
	}
	if m := size - off; int64(len(p)) > m {
		p = p[:m]
	}
	// Base: shared content (zeros where the shared file is shorter).
	n, err := f.shared.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	// Patch logged intervals, oldest to newest.
	fs := f.fs
	fs.mu.Lock()
	ivs := fs.overlay[f.ino]
	end := off + int64(len(p))
	for _, iv := range ivs {
		lo := max(off, iv.off)
		hi := min(end, iv.off+iv.length)
		if lo >= hi {
			continue
		}
		fs.dev.ReadIntoUser(p[lo-off:hi-off], iv.logOff+(lo-iv.off), sim.CatPMData)
	}
	fs.mu.Unlock()
	return len(p), nil
}

// Truncate digests pending log entries for this file, then truncates the
// shared file.
func (f *File) Truncate(size int64) error {
	if f.closed {
		return vfs.ErrClosed
	}
	f.fs.mu.Lock()
	f.fs.flushIno(f.ino)
	f.fs.mu.Unlock()
	return f.shared.Truncate(size)
}

// Sync is fsync(2): Strata persists each log append eagerly, so fsync
// only fences.
func (f *File) Sync() error {
	if f.closed {
		return vfs.ErrClosed
	}
	f.fs.plog.Fence()
	return nil
}

// Close implements vfs.File.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	return f.shared.Close()
}

// Stat implements vfs.File.
func (f *File) Stat() (vfs.FileInfo, error) {
	info, err := f.shared.Stat()
	if err != nil {
		return info, err
	}
	f.fs.mu.Lock()
	if over := f.fs.sizeOver[f.ino]; over > info.Size {
		info.Size = over
	}
	f.fs.mu.Unlock()
	return info, nil
}
