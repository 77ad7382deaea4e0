// Package vfs defines the POSIX-shaped interface every file system in this
// repository implements — the eight backends of the differential and macro
// matrices: ext4-dax, the three SplitFS modes (posix/sync/strict), the two
// NOVA modes (strict/relaxed), PMFS and Strata — plus the shared
// error set, open flags, the per-descriptor state their files share
// (Handle), and a file-descriptor table with POSIX dup semantics.
//
// The paper's SplitFS intercepts 35 POSIX calls via LD_PRELOAD; here the
// equivalent seam is this interface: applications and workloads are written
// against vfs.FileSystem and run unmodified on any of the eight
// implementations, which is exactly the transparency property the paper
// claims (§3.1).
package vfs

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Open flags, mirroring the POSIX values the paper's applications use.
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_CREATE = 0x40
	O_EXCL   = 0x80
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// The shared error set. Implementations wrap these with %w so callers can
// use errors.Is.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrNotEmpty = errors.New("directory not empty")
	ErrNoSpace  = errors.New("no space left on device")
	ErrBadFD    = errors.New("bad file descriptor")
	ErrInval    = errors.New("invalid argument")
	ErrReadOnly = errors.New("file not open for writing")
	ErrClosed   = errors.New("file already closed")
)

// FileInfo describes a file, in the spirit of stat(2).
type FileInfo struct {
	Ino    uint64
	Size   int64
	Blocks int64 // allocated 4 KB blocks
	IsDir  bool
	Nlink  uint32
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name  string
	Ino   uint64
	IsDir bool
}

// File is an open file handle. Read/Write use the handle's offset; ReadAt/
// WriteAt are positional (pread/pwrite). Sync is fsync(2).
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (FileInfo, error)
	// Path returns the path the file was opened with, for diagnostics.
	Path() string
}

// FileSystem is the POSIX-shaped surface shared by every file system in
// the reproduction.
type FileSystem interface {
	// Name identifies the implementation and mode, e.g. "splitfs-strict".
	Name() string
	OpenFile(path string, flag int, perm uint32) (File, error)
	Mkdir(path string, perm uint32) error
	Unlink(path string) error
	Rmdir(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string) (FileInfo, error)
	ReadDir(path string) ([]DirEntry, error)
}

// Create opens path for writing, creating and truncating as needed.
func Create(fs FileSystem, path string) (File, error) {
	return fs.OpenFile(path, O_RDWR|O_CREATE|O_TRUNC, 0644)
}

// Open opens path read-only.
func Open(fs FileSystem, path string) (File, error) {
	return fs.OpenFile(path, O_RDONLY, 0)
}

// WriteFile writes data to path in a single call, creating it.
func WriteFile(fs FileSystem, path string, data []byte) error {
	f, err := Create(fs, path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads the whole of path.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	f, err := Open(fs, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := f.ReadAt(buf, 0)
	// A clean EOF at exactly the stat'd size is the expected outcome (and
	// what a zero-length file reports); every other error — including a
	// non-EOF error on a full read — must propagate.
	if err != nil && !(errors.Is(err, io.EOF) && n == len(buf)) {
		return nil, err
	}
	return buf[:n], nil
}

// SyncAll is the group sync as every driver of a backend issues it — the
// served session, the crash runner, the bench stream — so that the
// differential can compare a served backend with its direct twin: the
// backend's own SyncAll when it has one (splitfs: every open file
// relinked under one journal commit), else a Sync of each of files in
// path order. files is sorted in place; handles reporting the same path
// keep the caller's order, which should therefore repeat run to run.
func SyncAll(fs FileSystem, files []File) error {
	if sa, ok := fs.(interface{ SyncAll() error }); ok {
		return sa.SyncAll()
	}
	slices.SortStableFunc(files, func(a, b File) int { return strings.Compare(a.Path(), b.Path()) })
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// PathError decorates an error with the operation and path, like
// os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return fmt.Sprintf("%s %s: %v", e.Op, e.Path, e.Err) }

// Unwrap supports errors.Is/As.
func (e *PathError) Unwrap() error { return e.Err }

// WrapPath returns a PathError around err, or nil when err is nil.
func WrapPath(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return &PathError{Op: op, Path: path, Err: err}
}

// Readable reports whether the flag permits reading.
func Readable(flag int) bool { return flag&0x3 == O_RDONLY || flag&0x3 == O_RDWR }

// Writable reports whether the flag permits writing.
func Writable(flag int) bool { return flag&0x3 == O_WRONLY || flag&0x3 == O_RDWR }
