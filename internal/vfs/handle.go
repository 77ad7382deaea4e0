package vfs

import (
	"sync"
	"sync/atomic"
)

// Handle is the per-descriptor state every backend's File embeds, and
// the File methods that need nothing else: the path it was opened with,
// the open flags, the closed state, and the offset Read, Write and Seek
// use, under its own lock. F is the embedding File, which supplies the
// positional I/O. A closed handle answers ErrClosed to every call, as
// os.File does: each check below looks at the closed state first.
type Handle[F Positional] struct {
	file   F
	path   string
	flag   int32 // beside closed, in one word: a splitfs.File stays 64 bytes
	closed atomic.Bool
	mu     sync.Mutex // the offset
	pos    int64
}

// Positional is what a backend's File supplies to its Handle.
type Positional interface {
	ReadAt(p []byte, off int64) (int, error)
	// WriteEnd writes p at off or, when atEOF, at the end of file as it
	// stands under the lock the write itself holds, so that O_APPEND
	// writers through distinct handles never overwrite each other. It
	// returns the offset after the bytes written.
	WriteEnd(p []byte, off int64, atEOF bool) (n int, end int64, err error)
	// Size is the file's size for SeekEnd. It charges nothing: lseek
	// reads the in-memory inode, it does not stat.
	Size() (int64, error)
}

// Open readies h, embedded in file, for an open of path with flag:
// offset 0, not closed.
func (h *Handle[F]) Open(file F, path string, flag int) {
	h.file, h.path, h.flag, h.pos = file, CleanPath(path), int32(flag), 0
	h.closed.Store(false)
}

// Path implements File.
func (h *Handle[F]) Path() string { return h.path }

// SetReadWrite gives the handle read and write access, whatever its open
// asked for. U-Split serves every handle on an inode through the kernel
// handle of the inode's open-file description, and checks each handle's
// own access mode before it calls K-Split.
func (h *Handle[F]) SetReadWrite() { h.flag = h.flag&^(O_WRONLY|O_RDWR) | O_RDWR }

// Closed reports whether the handle is closed.
func (h *Handle[F]) Closed() bool { return h.closed.Load() }

// MarkClosed closes the handle, or returns ErrClosed if it already was.
func (h *Handle[F]) MarkClosed() error {
	if !h.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	return nil
}

// CheckReadable returns ErrClosed on a closed handle, then ErrInval if
// h was not opened for reading.
func (h *Handle[F]) CheckReadable() error {
	if h.closed.Load() {
		return ErrClosed
	}
	if !Readable(int(h.flag)) {
		return ErrInval
	}
	return nil
}

// CheckWritable returns ErrClosed on a closed handle, then ErrReadOnly
// if h was not opened for writing.
func (h *Handle[F]) CheckWritable() error {
	if h.closed.Load() {
		return ErrClosed
	}
	if !Writable(int(h.flag)) {
		return ErrReadOnly
	}
	return nil
}

// Read implements File: it reads at the offset and advances it.
func (h *Handle[F]) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, err := h.file.ReadAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

// Write implements File: it writes at the offset, or with O_APPEND at
// the end of file, and moves the offset past what it wrote.
func (h *Handle[F]) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, end, err := h.file.WriteEnd(p, h.pos, h.flag&O_APPEND != 0)
	h.pos = end
	return n, err
}

// Seek implements File.
func (h *Handle[F]) Seek(offset int64, whence int) (int64, error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
	case SeekCur:
		base = h.pos
	case SeekEnd:
		size, err := h.file.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, ErrInval
	}
	if base+offset < 0 {
		return 0, ErrInval
	}
	h.pos = base + offset
	return h.pos, nil
}
