package strata

import (
	"io"

	"splitfs/internal/logfs"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open Strata file: a LibFS handle layered over the shared
// file, with reads resolved against the private-log overlay.
type File struct {
	vfs.Handle[*File]
	fs     *FS
	shared *logfs.File
	ino    uint64
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
	sf := &File{fs: fs, shared: f.(*logfs.File), ino: info.Ino}
	sf.Open(sf, path, flag)
	return sf, nil
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
	info.Size = max(info.Size, fs.sizeOver[info.Ino])
	fs.mu.Unlock()
	return info, nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) { return fs.shared.ReadDir(path) }

// size is the file's size, logged appends included, read through the
// shared file's Stat, which traps. Caller holds fs.mu.
func (f *File) size() int64 {
	info, _ := f.shared.Stat()
	return max(info.Size, f.fs.sizeOver[f.ino])
}

// Size implements vfs.Positional.
func (f *File) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	size, err := f.shared.Size()
	return max(size, f.fs.sizeOver[f.ino]), err
}

// WriteAt appends a record to the private log — a pure user-space
// operation with no kernel trap, synchronously persisted with one fence.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := f.WriteEnd(p, off, false)
	return n, err
}

// WriteEnd implements vfs.Positional: the O_APPEND end of file is read
// under fs.mu, which the write holds throughout.
func (f *File) WriteEnd(p []byte, off int64, atEOF bool) (int, int64, error) {
	if err := f.CheckWritable(); err != nil {
		return 0, off, err
	}
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if atEOF {
		off = f.size()
	}
	if off < 0 {
		return 0, off, vfs.ErrInval
	}
	if len(p) == 0 {
		return 0, off, nil
	}
	dataOff, err := fs.logWrite(f.ino, off, p)
	if err != nil {
		return 0, off, err
	}
	fs.addInterval(f.ino, interval{off: off, length: int64(len(p)), logOff: dataOff})
	fs.digestIfNeeded()
	return len(p), off + int64(len(p)), nil
}

// ReadAt resolves the base content from the shared file, then patches in
// logged writes newest-last (LibFS reads check the update log first).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.CheckReadable(); err != nil {
		return 0, err
	}
	f.fs.clk.Charge(sim.StrataReadPath)
	f.fs.mu.Lock()
	size := f.size()
	f.fs.mu.Unlock()
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
	clear(p[n:])
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
// shared file; a closed or read-only handle is refused, undigested.
func (f *File) Truncate(size int64) error {
	if err := f.CheckWritable(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.flushIno(f.ino)
	f.fs.mu.Unlock()
	return f.shared.Truncate(size)
}

// Sync is fsync(2): Strata persists each log append eagerly, so fsync
// only fences.
func (f *File) Sync() error {
	if f.Closed() {
		return vfs.ErrClosed
	}
	f.fs.plog.Fence()
	return nil
}

// Close implements vfs.File.
func (f *File) Close() error {
	if err := f.MarkClosed(); err != nil {
		return err
	}
	return f.shared.Close()
}

// Stat implements vfs.File.
func (f *File) Stat() (vfs.FileInfo, error) {
	info, err := f.shared.Stat()
	if err != nil {
		return info, err
	}
	f.fs.mu.Lock()
	info.Size = max(info.Size, f.fs.sizeOver[f.ino])
	f.fs.mu.Unlock()
	return info, nil
}
