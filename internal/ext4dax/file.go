package ext4dax

import (
	"io"
	"sync/atomic"

	"splitfs/internal/alloc"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open ext4 DAX file.
type File struct {
	vfs.Handle[*File]
	fs  *FS
	in  *inode
	gen uint64 // in.gen when the handle was opened
	// created: this open made the file (O_CREATE on a name that was free).
	created bool
	// epochIn is in, for the lock-free MapEpoch: OpenInto may reopen the
	// handle on another inode while a lease holder of its previous life
	// still reads the epoch.
	epochIn atomic.Pointer[inode]
}

var _ vfs.File = (*File)(nil)

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
func (f *File) stale() bool { return f.Closed() || f.in.gen != f.gen }

// Size implements vfs.Positional.
func (f *File) Size() (int64, error) {
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	if f.stale() {
		return 0, vfs.ErrClosed
	}
	return f.in.size, nil
}

// ReadAt is pread(2): it charges the kernel trap and read path, then
// copies data out of PM extent by extent. Holes read as zeros. Reads at
// or past EOF return io.EOF. It takes only the inode's read lock —
// concurrent reads, and writes to other files, proceed in parallel.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	if err := f.CheckReadable(); err != nil {
		return 0, err
	}
	fs.trap()
	fs.clk.Charge(sim.Ext4ReadPath)
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
			clear(p[n : n+int(span)])
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
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.WriteAtIn(nil, p, off) }

// WriteAtIn is WriteAt under batch b, if not nil.
func (f *File) WriteAtIn(b *Batch, p []byte, off int64) (int, error) {
	n, _, err := f.writeAt(b, p, off, false)
	return n, err
}

// WriteEnd implements vfs.Positional: the O_APPEND end of file is read
// under the inode lock (writeAt).
func (f *File) WriteEnd(p []byte, off int64, atEOF bool) (int, int64, error) {
	return f.writeAt(nil, p, off, atEOF)
}

// writeAt performs the write, resolving atEOF to the current size under
// the locks, and returns the end offset for handle-position updates.
func (f *File) writeAt(b *Batch, p []byte, off int64, atEOF bool) (int, int64, error) {
	fs := f.fs
	if err := f.CheckWritable(); err != nil {
		return 0, off, err
	}
	fs.trap()
	fs.clk.Charge(sim.Ext4DaxIomap)
	fs.stats.dataWrites.Add(1)
	fs.lock(b)
	defer fs.unlock()
	// A write that stops short restarts its handle, as jbd2 does, and
	// goes on from there (writeLocked).
	var n int
	for {
		if _, err := fs.start(b, func() claim { // before the handle check: it may wait
			if atEOF && n == 0 {
				off = f.in.size
			}
			return writeClaim(f.in, off+int64(n), off+int64(len(p)))
		}); err != nil {
			return n, off + int64(n), err
		}
		if f.stale() {
			return n, off + int64(n), vfs.ErrClosed
		}
		f.in.mu.Lock()
		if atEOF && n == 0 {
			off = f.in.size
		}
		k, err := fs.writeLocked(b, f.in, p[n:], off+int64(n))
		f.in.mu.Unlock()
		if n += k; err != nil || n == len(p) {
			return n, off + int64(n), err
		}
	}
}

// writeLocked performs the write under batch b, or when b is nil or As as
// a handle of its own, which stops short, with no error, before an
// allocation that does not fit beside what it has dirtied. Caller holds
// fs.mu and in.mu. Data stores are non-temporal and deliberately
// unfenced: like ext4-DAX, write() data becomes durable only at fsync (or
// a journal commit), which fences.
func (fs *FS) writeLocked(b *Batch, in *inode, p []byte, off int64) (int, error) {
	if off < 0 || off > MaxFileSize-int64(len(p)) {
		return 0, vfs.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	allocated := false
	n := 0
	var err error
	for n < len(p) {
		cur := off + int64(n)
		logical := cur / sim.BlockSize
		inBlk := cur % sim.BlockSize
		devOff, contig, ok := translate(fs, in, logical)
		if !ok {
			// Allocating write: fill the hole / extend the file.
			if c, _ := inodeCredit(in, off/sim.BlockSize, 1); b.own() && allocated && !fs.fits(c) {
				break
			}
			if !allocated {
				// Charged once per call, like one journal handle and
				// unwritten-extent conversion per write syscall.
				fs.clk.Charge(sim.Ext4JournalHandle)
				fs.clk.Charge(sim.Ext4AllocWritePath)
				allocated = true
			}
			needBlocks := (int64(len(p)-n)+inBlk+sim.BlockSize-1)/sim.BlockSize - 0
			// Bound the request to the hole: find the next mapped block.
			holeLen := in.extents.NextMapped(logical) - logical
			if holeLen > 0 && needBlocks > holeLen {
				needBlocks = holeLen
			}
			// The leaf the record may need comes first.
			needBlocks = min(needBlocks, fs.bBmp.FreeCount()-fs.leafRes-newLeaves(in, 1))
			var (
				e     alloc.Extent
				dirty alloc.ByteRange
			)
			if needBlocks < 1 {
				err = vfs.ErrNoSpace
			} else {
				e, dirty, err = fs.bBmp.AllocExtent(fs.src, needBlocks)
			}
			if err != nil {
				break
			}
			fs.note(dirty.Off, dirty.Len)
			in.extents.Insert(logical, e)
			in.blocks += e.Len
			// Zero the edges of the new allocation that this write does
			// not cover (DAX zeroes fresh blocks for security).
			newDev := fs.bBmp.ExtentOffset(e)
			if inBlk > 0 {
				fs.dev.As(fs.src).StoreNT(newDev, make([]byte, inBlk), sim.CatPMData)
			}
			lastByte := min(off+int64(len(p)), (logical+e.Len)*sim.BlockSize)
			if tail := (logical+e.Len)*sim.BlockSize - lastByte; tail > 0 {
				fs.dev.As(fs.src).StoreNT(newDev+e.Len*sim.BlockSize-tail,
					make([]byte, tail), sim.CatPMData)
			}
			devOff, contig, _ = translate(fs, in, logical)
		}
		span := contig*sim.BlockSize - inBlk
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		fs.dev.As(fs.src).StoreNT(devOff+inBlk, p[n:n+int(span)], sim.CatPMData)
		n += int(span)
	}
	end := off + int64(n)
	grew := n > 0 && end > in.size
	if grew {
		in.size = end
	}
	// Pure in-place overwrites need no metadata update; allocating or
	// size-extending writes persist the inode through the journal.
	if allocated || grew {
		fs.writeInode(in)
	}
	return n, err
}

// Truncate implements ftruncate(2).
func (f *File) Truncate(size int64) error { return f.TruncateIn(nil, size) }

// TruncateIn is Truncate under batch b, if not nil.
func (f *File) TruncateIn(b *Batch, size int64) error {
	fs := f.fs
	fs.lock(b)
	defer fs.unlock()
	fs.admit(b, claim{credit: truncateCredit}) // before the handle check: it may wait
	if f.stale() {
		return vfs.ErrClosed
	}
	if err := f.CheckWritable(); err != nil {
		return err
	}
	if size < 0 || size > MaxFileSize {
		return vfs.ErrInval
	}
	fs.trap()
	fs.clk.Charge(sim.Ext4JournalHandle)
	fs.stats.metaOps.Add(1)
	f.in.mu.Lock()
	fs.truncateLocked(f.in, size)
	f.in.mu.Unlock()
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
				fs.dev.As(fs.src).StoreBuffered(devOff, make([]byte, cut), sim.CatPMData)
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
func (f *File) Sync() error { return f.SyncIn(nil) }

// SyncIn is Sync under a handle that names only a source (As), if not nil.
func (f *File) SyncIn(b *Batch) error {
	fs := f.fs
	fs.lock(b)
	defer fs.unlock()
	if f.stale() {
		return vfs.ErrClosed
	}
	fs.syncLocked()
	return nil
}

// SyncAll is syncfs(2), the group sync vfs.SyncAll asks a backend for:
// one trap and one commit of the running transaction make every
// completed operation durable, whether or not a handle is open on it. It
// costs what an fsync costs.
func (fs *FS) SyncAll() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncLocked()
	return nil
}

// syncLocked traps, commits the running transaction and fences: the
// work of fsync and syncfs alike. Caller holds fs.mu.
func (fs *FS) syncLocked() {
	fs.trap()
	fs.clk.Charge(sim.Ext4Fsync)
	fs.awaitCommittable()
	fs.commitTx()
	fs.dev.As(fs.src).Fence()
}

// Close implements vfs.File. ext4 keeps no per-handle state beyond the
// offset, so close is nearly free (Table 6: 0.34 µs) — except for the
// last close of an orphan (unlinked-while-open) inode, which frees it.
func (f *File) Close() error {
	if err := f.MarkClosed(); err != nil {
		return err
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
	}
	return nil
}

// Stat implements vfs.File.
func (f *File) Stat() (vfs.FileInfo, error) {
	if f.Closed() {
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
	// The handle claims the blocks and the leaves they may need, so a
	// device whose free blocks the running transaction holds commits
	// first; the blocks then come before the credit, for an exact one:
	// blocks whose credit or leaves do not fit go back, before a commit or
	// the failure.
	var (
		exts    []alloc.Extent
		dirties []alloc.ByteRange
		err     error
		want    = claim{blocks: count + newLeaves(f.in, count)}
	)
	for {
		if _, err := fs.start(nil, func() claim { return want }); err != nil {
			return err
		}
		if f.stale() { // start may have waited
			return vfs.ErrClosed
		}
		if exts, dirties, err = fs.bBmp.AllocAligned(fs.src, count, align); err != nil {
			return err
		}
		var leaves int64
		want.credit, leaves = inodeCredit(f.in, MaxFileBlocks, int64(len(exts)))
		room := fs.bBmp.FreeCount()-fs.leafRes >= leaves
		if room && fs.fits(want.credit) {
			break
		}
		for _, e := range exts {
			fs.bBmp.Free(fs.src, e)
		}
		if !room {
			return vfs.ErrNoSpace
		}
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
	return nil
}
