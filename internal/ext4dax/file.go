package ext4dax

import (
	"io"
	"sync"
	"sync/atomic"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open ext4 DAX file.
type File struct {
	fs   *FS
	in   *inode
	gen  uint64 // in.gen when the handle was opened
	flag int
	path string
	// created: this open made the file (O_CREATE on a name that was free).
	created bool
	// epochIn is in, for the lock-free MapEpoch: OpenInto may reopen the
	// handle on another inode while a lease holder of its previous life
	// still reads the epoch.
	epochIn atomic.Pointer[inode]

	mu     sync.Mutex // handle offset
	pos    int64
	closed atomic.Bool
}

var _ vfs.File = (*File)(nil)

// Path implements vfs.File.
func (f *File) Path() string { return f.path }

// Ino exposes the inode number (used by U-Split's attribute cache).
func (f *File) Ino() uint64 { return f.in.ino }

// Created reports whether this open created the file. U-Split logs a
// creating open as a metadata operation and a plain one as nothing.
func (f *File) Created() bool { return f.created }

// Linked reports whether the handle's inode is still live in the
// namespace — the file it was opened on, not whatever a recycled record
// or a reused inode number serves now. U-Split checks it before caching
// an open-file description: a handle that lost a race with unlink still
// works (tmpfile semantics) but must not be registered under an inode
// number that may be reallocated.
func (f *File) Linked() bool {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return f.in.gen == f.gen && f.in.nlink > 0
}

// stale reports whether the handle is closed or its inode has been freed
// since it was opened: the record may serve another file by now. Caller
// holds fs.mu or f.in.mu.
func (f *File) stale() bool { return f.closed.Load() || f.in.gen != f.gen }

// Read reads from the handle offset.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the handle offset (or at EOF with O_APPEND). The EOF
// offset is resolved under the inode lock, so concurrent O_APPEND writers
// through distinct handles never overwrite each other.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, end, err := f.writeAt(p, f.pos, f.flag&vfs.O_APPEND != 0)
	f.pos = end
	return n, err
}

// Seek implements vfs.File.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case vfs.SeekSet:
		base = 0
	case vfs.SeekCur:
		base = f.pos
	case vfs.SeekEnd:
		f.in.mu.RLock()
		stale := f.stale()
		base = f.in.size
		f.in.mu.RUnlock()
		if stale {
			return 0, vfs.ErrClosed
		}
	default:
		return 0, vfs.ErrInval
	}
	if base+offset < 0 {
		return 0, vfs.ErrInval
	}
	f.pos = base + offset
	return f.pos, nil
}

// ReadAt is pread(2): it charges the kernel trap and read path, then
// copies data out of PM extent by extent. Holes read as zeros. Reads at
// or past EOF return io.EOF. It takes only the inode's read lock —
// concurrent reads, and writes to other files, proceed in parallel.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	if !vfs.Readable(f.flag) {
		return 0, vfs.ErrInval
	}
	fs.trap()
	fs.clk.Charge(sim.CatCPU, sim.Ext4ReadPathNs)
	fs.stats.dataReads.Add(1)
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	if f.stale() {
		return 0, vfs.ErrClosed
	}
	return fs.readLocked(f.in, p, off)
}

// readLocked copies file content into p. Caller holds in.mu (read or
// write side).
func (fs *FS) readLocked(in *inode, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if off >= in.size {
		return 0, io.EOF
	}
	if max := in.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		logical := cur / sim.BlockSize
		inBlk := cur % sim.BlockSize
		devOff, contig, ok := translate(fs, in, logical)
		span := contig*sim.BlockSize - inBlk
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		if !ok {
			// Hole: zero fill one block's worth.
			span = sim.BlockSize - inBlk
			if span > int64(len(p)-n) {
				span = int64(len(p) - n)
			}
			for i := int64(0); i < span; i++ {
				p[n+int(i)] = 0
			}
			n += int(span)
			continue
		}
		fs.dev.ReadIntoUser(p[n:n+int(span)], devOff+inBlk, sim.CatPMData)
		n += int(span)
	}
	return n, nil
}

// WriteAt is pwrite(2). Overwrites of allocated blocks go straight to PM
// with non-temporal stores (the DAX path); writes into holes or past the
// allocated blocks take the allocating write path: block allocation,
// extent tree update, journal handle, and new-block zeroing — the
// software overhead the paper measures in Table 1.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := f.writeAt(p, off, false)
	return n, err
}

// writeAt performs the write, resolving atEOF to the current size under
// the locks, and returns the end offset for handle-position updates.
func (f *File) writeAt(p []byte, off int64, atEOF bool) (int, int64, error) {
	fs := f.fs
	if f.closed.Load() {
		return 0, off, vfs.ErrClosed
	}
	if !vfs.Writable(f.flag) {
		return 0, off, vfs.ErrReadOnly
	}
	fs.trap()
	fs.clk.Charge(sim.CatCPU, sim.Ext4DaxIomapNs)
	fs.stats.dataWrites.Add(1)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.stale() {
		return 0, off, vfs.ErrClosed
	}
	f.in.mu.Lock()
	if atEOF {
		off = f.in.size
	}
	n, err := fs.writeLocked(f.in, p, off)
	f.in.mu.Unlock()
	fs.maybeCommit()
	return n, off + int64(n), err
}

// writeLocked performs the write. Caller holds fs.mu and in.mu. Data
// stores are non-temporal and deliberately unfenced: like ext4-DAX,
// write() data becomes durable only at fsync (or a journal commit),
// which fences.
//
// +persist:caller-fenced
func (fs *FS) writeLocked(in *inode, p []byte, off int64) (int, error) {
	if off < 0 || off > MaxFileSize-int64(len(p)) {
		return 0, vfs.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	end := off + int64(len(p))
	allocated := false
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		logical := cur / sim.BlockSize
		inBlk := cur % sim.BlockSize
		devOff, contig, ok := translate(fs, in, logical)
		if !ok {
			// Allocating write: fill the hole / extend the file.
			if !allocated {
				// Charged once per call, like one journal handle and
				// unwritten-extent conversion per write syscall.
				fs.clk.Charge(sim.CatJournal, sim.Ext4JournalHandleNs)
				fs.clk.Charge(sim.CatCPU, sim.Ext4AllocWritePathNs)
				allocated = true
			}
			needBlocks := (end-cur+inBlk+sim.BlockSize-1)/sim.BlockSize - 0
			// Bound the request to the hole: find the next mapped block.
			holeLen := in.extents.NextMapped(logical) - logical
			if holeLen > 0 && needBlocks > holeLen {
				needBlocks = holeLen
			}
			e, dirty, err := fs.bBmp.AllocExtent(needBlocks)
			if err != nil {
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
			fs.note(dirty.Off, dirty.Len)
			in.extents.Insert(logical, e)
			in.blocks += e.Len
			// Zero the edges of the new allocation that this write does
			// not cover (DAX zeroes fresh blocks for security).
			newDev := fs.bBmp.ExtentOffset(e)
			if inBlk > 0 {
				fs.dev.StoreNT(newDev, make([]byte, inBlk), sim.CatPMData)
			}
			lastByte := min(end, (logical+e.Len)*sim.BlockSize)
			if tail := (logical+e.Len)*sim.BlockSize - lastByte; tail > 0 {
				fs.dev.StoreNT(newDev+e.Len*sim.BlockSize-tail,
					make([]byte, tail), sim.CatPMData)
			}
			devOff, contig, _ = translate(fs, in, logical)
		}
		span := contig*sim.BlockSize - inBlk
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		fs.dev.StoreNT(devOff+inBlk, p[n:n+int(span)], sim.CatPMData)
		n += int(span)
	}
	grew := end > in.size
	if grew {
		in.size = end
	}
	// Pure in-place overwrites need no metadata update; allocating or
	// size-extending writes persist the inode through the journal.
	if allocated || grew {
		fs.writeInode(in)
	}
	return n, nil
}

// Truncate implements ftruncate(2).
func (f *File) Truncate(size int64) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.stale() {
		return vfs.ErrClosed
	}
	if !vfs.Writable(f.flag) {
		return vfs.ErrReadOnly
	}
	if size < 0 || size > MaxFileSize {
		return vfs.ErrInval
	}
	fs.trap()
	fs.clk.Charge(sim.CatJournal, sim.Ext4JournalHandleNs)
	fs.stats.metaOps.Add(1)
	f.in.mu.Lock()
	fs.truncateLocked(f.in, size)
	f.in.mu.Unlock()
	fs.maybeCommit()
	return nil
}

// truncateLocked shrinks or grows (as a hole) the file. Caller holds
// fs.mu and, for file inodes, in.mu.
//
// A shrink that leaves a partial last block zeroes what it cuts off inside
// that block, so that bytes past EOF in a file's last block are always
// zero on media and any later growth — truncate, a write or a relink
// beyond EOF — exposes zeros without having to look. The zeros are
// journaled with the new size (buffered stores, the block noted into the
// running transaction), never stored ahead of it: a truncate that crashes
// before its commit must leave the old bytes under the old size.
func (fs *FS) truncateLocked(in *inode, size int64) {
	if size < in.size {
		// Remap event: the bump must be visible before any freed block
		// can be recycled, so lease holders re-validating after their
		// loads are guaranteed to observe it (vfs.Mappable contract).
		in.mapEpoch.Add(1)
		fromLogical := (size + sim.BlockSize - 1) / sim.BlockSize
		fs.moved = in.extents.Truncate(fs.moved[:0], fromLogical)
		for _, e := range fs.moved {
			fs.deferFree(fs.bBmp, e)
			in.blocks -= e.Len
		}
		if cut := min(in.size, fromLogical*sim.BlockSize) - size; cut > 0 {
			if devOff, ok := fs.blockOf(in, size/sim.BlockSize); ok {
				devOff += size % sim.BlockSize
				fs.dev.StoreBuffered(devOff, make([]byte, cut), sim.CatPMData)
				fs.note(devOff, int(cut))
			}
		}
	}
	in.size = size
	fs.writeInode(in)
}

// Sync is fsync(2): commit the running journal transaction and fence the
// file's outstanding non-temporal data. On ext4 DAX this is the expensive
// call the paper measures at 28.98 µs (Table 6).
func (f *File) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.stale() {
		return vfs.ErrClosed
	}
	fs.trap()
	fs.clk.Charge(sim.CatCPU, sim.Ext4FsyncNs)
	fs.awaitCommittable()
	if err := fs.commitTx(); err != nil {
		return err
	}
	fs.dev.Fence()
	return nil
}

// Close implements vfs.File. ext4 keeps no per-handle state beyond the
// offset, so close is nearly free (Table 6: 0.34 µs) — except for the
// last close of an orphan (unlinked-while-open) inode, which frees it.
func (f *File) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return vfs.ErrClosed
	}
	fs := f.fs
	fs.trap()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.in.gen != f.gen {
		return nil // a directory rmdir freed under the handle
	}
	f.in.openCnt--
	if f.in.openCnt == 0 && f.in.orphan {
		fs.freeInode(f.in)
		fs.maybeCommit()
	}
	return nil
}

// Stat implements vfs.File.
func (f *File) Stat() (vfs.FileInfo, error) {
	if f.closed.Load() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	f.fs.trap()
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	if f.stale() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	return f.fs.infoOf(f.in), nil
}

// Preallocate adds count blocks to the end of the file and extends its
// size to cover them; U-Split creates its staging files and operation log
// with it. With align > one block (HugePageSize, for a file that will be
// mapped with huge pages) the blocks are one contiguous extent at a
// device offset that is a multiple of align, the lowest free one; when
// the device has no such run free, or align is 0, they come from the
// next-fit allocator in as few extents as it can manage, and a later
// Mmap falls back to 4 KB pages. Blocks past MaxFileBlocks are refused.
func (f *File) Preallocate(count, align int64) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.stale() {
		return vfs.ErrClosed
	}
	if count < 0 || count > MaxFileBlocks-f.in.extents.End() {
		return vfs.ErrInval
	}
	fs.trap()
	exts, dirties, err := fs.bBmp.AllocAligned(count, align)
	if err != nil {
		return err
	}
	f.in.mu.Lock()
	defer f.in.mu.Unlock()
	for i, e := range exts {
		fs.note(dirties[i].Off, dirties[i].Len)
		f.in.extents.Insert(f.in.extents.End(), e)
		f.in.blocks += e.Len
	}
	f.in.size = f.in.extents.End() * sim.BlockSize
	fs.writeInode(f.in)
	fs.maybeCommit()
	return nil
}
