package splitfs

import (
	"io"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open U-Split file handle. Handles opened for the same inode
// share one ofile (and thus one staged overlay); dup'd descriptors share
// the File itself and therefore the offset (§3.5).
type File struct {
	vfs.Handle[*File]
	of  *ofile // and through it the FS: a handle stays in a 64-byte size class
	gen uint64 // of's generation when this handle was opened
}

var _ vfs.File = (*File)(nil)

// OpenFile implements vfs.FileSystem: the open passes through to K-Split,
// then U-Split stats the file and caches its attributes (§3.5).
//
// An open that can create or truncate is a metadata operation (lockMeta,
// stampedMeta), and when it did, its log record is the create's or the
// truncate's redo record; any other open logs, in strict mode, the
// cost-only open entry. Either way one entry, whose room is reserved
// before anything is opened: a full log that cannot checkpoint fails the
// open with nothing registered.
func (fs *FS) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	clean := vfs.CleanPath(path)
	mayChange := flag&(vfs.O_CREATE|vfs.O_TRUNC) != 0
	lock, need := fs.lockStrict, int64(logEntryBytes)
	if mayChange {
		lock, need = fs.lockMeta, metaRecordBytes(len(clean))
	}
	unlock, err := lock(need)
	if err != nil {
		return nil, err
	}
	defer unlock()
	// The kernel handle is opened into a description, recycled or new;
	// when the file turns out to have one already, it goes back unused.
	spare := fs.newOfile()
	kf := &spare.kf
	truncating := flag&vfs.O_TRUNC != 0 && vfs.Writable(flag)
	open := func(b *ext4dax.Batch, seq uint64) (bool, error) {
		if err := fs.kfs.OpenInto(b, kf, path, flag, perm); err != nil {
			return false, err
		}
		// Truncating an existing file counts even when K-Split found it
		// empty: what U-Split has staged for it is dropped below.
		if !kf.Created() && !truncating {
			return false, nil
		}
		// A created or truncated file must not inherit log entries: those
		// of a previous incarnation of its inode number, or the staged
		// writes the truncate drops. Its watermark moves past every entry
		// logged so far, to the operation's own sequence number. (Sync
		// mode logs no writes to mask.)
		if fs.mode == Strict {
			kf.SetUserWatermark(b, seq)
		}
		return true, nil
	}
	// A plain open takes no wmu outside strict mode, so it must keep away
	// from the sequence counter stampedMeta reads.
	var seq uint64
	if mayChange {
		seq, err = fs.stampedMeta(open)
	} else {
		_, err = open(nil, 0)
	}
	if err != nil {
		fs.park(spare)
		return nil, err
	}
	created := kf.Created()
	fs.clk.Charge(sim.USplitOpen)
	// Attribute cache (§3.5): a file opened before (and not unlinked)
	// skips the stat; first-time opens pay it. This is why reopening a
	// recently closed file is cheaper in Table 6.
	fs.amu.Lock()
	info, cached := fs.attrs[clean]
	fs.amu.Unlock()
	// The handle knows its true inode for free; a cached attribute whose
	// ino disagrees is stale (the path was unlinked and recreated) and
	// must not be trusted — registering the new file under the old inode
	// number would corrupt the open-file table.
	if cached && info.Ino != kf.Ino() {
		cached = false
	}
	if !cached || flag&vfs.O_TRUNC != 0 {
		info, err = kf.Stat()
		if err != nil {
			kf.Close()
			fs.park(spare)
			return nil, err
		}
	}
	fs.mu.Lock()
	of, ok := fs.files[info.Ino]
	if !ok {
		of = spare
		// A syncFiles that took the description from the table in its
		// previous life may still lock it.
		of.mu.Lock()
		of.ino, of.path = info.Ino, clean
		of.size, of.ksize = info.Size, info.Size
		of.logSeq = seq
		of.mu.Unlock()
		of.kfClosed = false
		// The description's kernel handle serves every later handle on
		// the inode, whatever their modes; each File checks its own.
		kf.SetReadWrite()
		// Register the description only while its inode is still linked:
		// an open racing an unlink of the same path keeps a working
		// (tmpfile-style) handle, but must not occupy the table slot of
		// an inode number that may be recycled. Unlink retires the entry
		// after the kernel unlink, so whichever side runs second cleans
		// up: a pre-unlink insert is retired, a post-unlink open sees
		// Linked() == false here and caches nothing.
		if kf.Linked() {
			fs.files[info.Ino] = of
			fs.amu.Lock()
			fs.attrs[clean] = info
			fs.amu.Unlock()
		}
		if truncating {
			// The kernel truncated on open: stale mappings over freed
			// blocks must go.
			fs.mmaps.trim(info.Ino, 0)
		}
	} else {
		// Reuse the shared description; the redundant kernel handle is
		// closed (its open cost was already charged, as in the real
		// LD_PRELOAD library which still performs the open syscall).
		kf.Close()
		if truncating {
			of.mu.Lock()
			// Remap event: the dropped overlay's staging chunks are
			// released here and may be recycled (vfs.Mappable contract).
			of.mapEpoch.Add(1)
			// The truncated-away overlay and append chunk release their
			// staging-file references (the data is dropped, not relinked).
			fs.staging.release(of.staged)
			clear(of.staged)
			of.staged = of.staged[:0]
			fs.staging.releaseChunk(of.active)
			of.active = nil
			of.size, of.ksize = 0, 0
			of.logSeq = max(of.logSeq, seq)
			of.mu.Unlock()
			fs.mmaps.trim(of.ino, 0)
		}
		// A live table entry implies the inode was linked an instant ago;
		// a concurrent unlink's sweep (which runs after the kernel
		// unlink) will delete this attribute again if it races us.
		fs.amu.Lock()
		fs.attrs[clean] = info
		fs.amu.Unlock()
	}
	of.refs++
	gen := of.gen.Load()
	fs.mu.Unlock()
	if of != spare {
		fs.park(spare)
	}
	switch {
	case created:
		fs.logMeta(metaRecord{kind: metaCreate, seq: seq, ino: info.Ino, path: clean})
	case seq != 0:
		fs.logMeta(metaRecord{kind: metaTruncate, seq: seq, ino: info.Ino})
	case fs.mode == Strict:
		fs.appendLog(encMetaEntry(metaOpen, info.Ino))
	}
	f := &File{of: of, gen: gen}
	f.Open(f, clean, flag)
	return f, nil
}

// live reports whether the handle is open and its description is still in
// the life it was opened in: a description recycled since serves another
// file. Caller holds f.of.mu (either side), under which a description
// retires.
func (f *File) live() bool { return !f.Closed() && f.of.gen.Load() == f.gen }

// Write implements vfs.File. In strict mode the op-log writer lock is
// taken outside the handle lock, as WriteAt takes it.
func (f *File) Write(p []byte) (int, error) {
	unlock, err := f.of.fs.lockStrict(f.of.fs.stagePieces(len(p)) * logEntryBytes)
	if err != nil {
		return 0, err
	}
	defer unlock()
	return f.Handle.Write(p)
}

// Size implements vfs.Positional.
func (f *File) Size() (int64, error) {
	f.of.mu.RLock()
	defer f.of.mu.RUnlock()
	if !f.live() {
		return 0, vfs.ErrClosed
	}
	return f.of.size, nil
}

// ReadAt serves the read entirely in user space: the collection of mmaps
// provides the base content; staged ranges (appends, strict overwrites)
// are patched in from the staging files' mappings (§3.4). It holds only
// this file's read lock — no process-wide lock in any mode — so
// concurrent reads (of any files) and writes to other files all proceed
// in parallel.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	fs := f.of.fs
	if err := f.CheckReadable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	fs.bookkeep()
	fs.stats.userReads.Add(1)
	of := f.of
	of.mu.RLock()
	defer of.mu.RUnlock()
	if !f.live() {
		return 0, vfs.ErrClosed
	}
	if off >= of.size {
		return 0, io.EOF
	}
	if m := of.size - off; int64(len(p)) > m {
		p = p[:m]
	}
	// Base content from the target file's mappings (only up to ksize;
	// beyond that everything is staged).
	n := 0
	for n < len(p) && off+int64(n) < of.ksize {
		cur := off + int64(n)
		span := int64(len(p) - n)
		if rem := of.ksize - cur; span > rem {
			span = rem
		}
		got, mapped := fs.mmaps.load(of, p[n:n+int(span)], cur)
		if !mapped {
			// Hole or unmappable region: fall back to a kernel read.
			got, err := of.kf.ReadAt(p[n:n+int(span)], cur)
			if err != nil && err != io.EOF {
				return n, err
			}
			clear(p[n+got : n+int(span)])
			n += int(span)
			continue
		}
		if got == 0 {
			// Mapping ends before ksize (sparse tail); zero-fill one block.
			z := sim.BlockSize - cur%sim.BlockSize
			if z > int64(len(p)-n) {
				z = int64(len(p) - n)
			}
			clear(p[n : n+int(z)])
			n += int(z)
			continue
		}
		n += got
	}
	// Zero anything between ksize and size not covered by staging.
	clear(p[n:])
	// Patch staged ranges (oldest first; later writes win). Each range
	// holds a reference on its staging file until the relink that pops it
	// — under of.mu's write side — has committed, so the mapping cannot
	// be reclaimed under this read lock.
	end := off + int64(len(p))
	for _, s := range of.overlaps(off, int64(len(p))) {
		lo, hi := s.fileOff, s.fileOff+s.length
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if s.dram != nil {
			fs.clk.ChargeN(sim.DRAMCopy, hi-lo)
			copy(p[lo-off:hi-off], s.dram[lo-s.fileOff:hi-s.fileOff])
			continue
		}
		s.sf.m.Load(p[lo-off:hi-off], s.sfOff+(lo-s.fileOff))
	}
	return len(p), nil
}

// WriteAt routes the write by kind and mode (§3.4):
//
//   - overwrite, POSIX/sync: in-place non-temporal stores through the
//     mmap collection (fenced in sync mode);
//   - overwrite, strict: staged + logged, relinked on fsync;
//   - append (any mode): staged; logged in strict; atomic on fsync.
//
// Only this file's lock is held (plus, in strict mode, the op-log writer
// lock); writes to different files proceed in parallel.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	unlock, err := f.of.fs.lockStrict(f.of.fs.stagePieces(len(p)) * logEntryBytes)
	if err != nil {
		return 0, err
	}
	defer unlock()
	n, _, err := f.WriteEnd(p, off, false)
	return n, err
}

// WriteEnd implements vfs.Positional: the O_APPEND end of file is read
// under of.mu, which the write holds throughout, so concurrent appenders
// through distinct handles interleave whole writes. Caller holds wmu in
// strict mode.
func (f *File) WriteEnd(p []byte, off int64, atEOF bool) (int, int64, error) {
	f.of.mu.Lock()
	defer f.of.mu.Unlock()
	if atEOF {
		off = f.of.size
	}
	n, err := f.writeLocked(p, off)
	return n, off + int64(n), err
}

// writeLocked is WriteAt under f.of.mu (and wmu in strict mode).
func (f *File) writeLocked(p []byte, off int64) (int, error) {
	fs := f.of.fs
	if !f.live() {
		return 0, vfs.ErrClosed
	}
	if err := f.CheckWritable(); err != nil {
		return 0, err
	}
	if off < 0 || off > ext4dax.MaxFileSize-int64(len(p)) { // nothing staged K-Split could not relink
		return 0, vfs.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	fs.bookkeep()
	of := f.of
	end := off + int64(len(p))
	isAppend := end > of.ksize || fs.cfg.DisableStaging && end > of.size

	if fs.cfg.DisableStaging {
		// Fig 3 ablation: appends go through the kernel like ext4 DAX.
		if isAppend || fs.mode == Strict {
			n, err := of.kf.WriteAt(p, off)
			if end > of.size {
				of.size = end
			}
			if end > of.ksize {
				of.ksize = end
			}
			return n, err
		}
	}

	switch {
	case fs.mode == Strict:
		// All strict-mode writes are staged and logged.
		return fs.stageWrite(of, p, off)
	case isAppend:
		// POSIX/sync appends are staged (and atomic on fsync).
		return fs.stageWrite(of, p, off)
	case len(of.overlaps(off, end-off)) > 0:
		// The range is shadowed by staged data (e.g. an earlier
		// size-extending write): an in-place store would be hidden by
		// the overlay, so stage this write too to preserve ordering.
		return fs.stageWrite(of, p, off)
	default:
		// In-place overwrite through the mmap collection.
		fs.stats.userWrites.Add(1)
		n := 0
		for n < len(p) {
			cur := off + int64(n)
			got, mapped := fs.mmaps.storeNT(of, p[n:], cur)
			if !mapped {
				// Hole in the file: fall back to the kernel write path.
				got, err := of.kf.WriteAt(p[n:], cur)
				n += got
				if err != nil {
					return n, err
				}
				continue
			}
			if got == 0 {
				got2, err := of.kf.WriteAt(p[n:], cur)
				n += got2
				if err != nil {
					return n, err
				}
				continue
			}
			n += got
		}
		if fs.mode == Sync {
			fs.dev.Fence()
		}
		return n, nil
	}
}

// stageWrite redirects a write to the staging files. A reservation
// cannot span staging files, so a write too large for one is staged as
// consecutive pieces, each ending on a block boundary of the target and
// small enough that an empty staging file holds it; in strict mode each
// piece is logged, and so atomic, on its own. Caller holds of.mu (and wmu
// in strict mode).
func (fs *FS) stageWrite(of *ofile, p []byte, off int64) (int, error) {
	maxPiece := fs.maxPiece()
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		piece := min(int64(len(p)-n), maxPiece-cur%sim.BlockSize)
		got, err := fs.stagePiece(of, p[n:n+int(piece)], cur)
		n += got
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// maxPiece is the most one staging reservation takes: a staging file less
// the block a write's in-block offset can cost.
func (fs *FS) maxPiece() int64 { return fs.cfg.StagingFileBytes - sim.BlockSize }

// stagePieces bounds the pieces stageWrite makes of an n-byte write, and
// so the op-log entries a strict-mode write reserves: the write's span
// from the start of its first block, cut every maxPiece bytes. (An empty
// write reserves one entry it will not use.)
func (fs *FS) stagePieces(n int) int64 {
	return (int64(n)+sim.BlockSize-2)/fs.maxPiece() + 1
}

// stagePiece stages one write that fits a staging file: non-temporal
// stores through the staging mapping, then in strict mode a fence and one
// op-log entry with its own fence. Caller holds of.mu (and wmu in strict
// mode).
func (fs *FS) stagePiece(of *ofile, p []byte, off int64) (int, error) {
	fs.stats.appends.Add(1)
	need := int64(len(p))
	fs.stats.stagedBytes.Add(need)
	// A staged write below ksize or over an existing staged range shadows
	// bytes a lease may currently map (kernel extents or an earlier
	// staged range); bump before the overlay changes. A pure append only
	// adds coverage and needs no bump (vfs.Mappable contract).
	if off < of.ksize || of.overlapsAny(off, need) {
		of.mapEpoch.Add(1)
	}
	if fs.cfg.StageInDRAM {
		// §4 ablation: buffer in DRAM at memcpy speed; every byte must
		// later be copied into PM through the kernel at fsync.
		fs.clk.ChargeN(sim.DRAMCopy, int64(len(p)))
		of.addStaged(stagedRange{fileOff: off, length: need,
			dram: append([]byte(nil), p...)})
		if end := off + need; end > of.size {
			of.size = end
		}
		return len(p), nil
	}
	// Reuse the active chunk when this write continues it (the common
	// sequential-append pattern packs one relinkable run).
	c := of.active
	// A cursor at a block boundary stands before a block nothing has
	// touched (the chunk's first, or the one after a block that filled up
	// or was relinked away whole): the write starts at its own offset
	// within it. A cursor mid-block continues the bytes before it.
	var skip int64
	if c != nil && (c.base+c.used)%sim.BlockSize == 0 {
		skip = off % sim.BlockSize
	}
	fits := c != nil && c.used+skip+need <= c.end-c.base &&
		(c.base+c.used+skip)%sim.BlockSize == off%sim.BlockSize
	// With pending staged ranges the write must continue the last one;
	// right after a relink (no staged ranges) the chunk tail is free to
	// continue at any congruent offset.
	if fits && len(of.staged) > 0 {
		fits = fs.continuesActive(of, off)
	}
	if !fits {
		// Appends (extending the file) get a large chunk so consecutive
		// appends form one relinkable run; staged overwrites reserve
		// exactly their footprint.
		exact := off+need <= of.size
		// The replaced chunk goes first, so that the tail it gives back is
		// where the new reservation starts instead of being stranded
		// behind it. Its staging-file reference is dropped; staged ranges
		// still inside it hold their own.
		fs.staging.releaseChunk(of.active)
		of.active = nil
		chunk, err := fs.staging.reserve(need, off, exact)
		if err != nil {
			return 0, err
		}
		of.chunk = chunk
		c, of.active = &of.chunk, &of.chunk
	} else {
		c.used += skip
	}
	sfOff := c.base + c.used
	c.sf.m.StoreNT(pmem.SrcForeground, p, sfOff)
	c.used += need
	if of.addStaged(stagedRange{fileOff: off, length: need, sf: c.sf, sfOff: sfOff}) {
		// A new overlay entry references the staging file; merged appends
		// extend the existing entry and its existing reference.
		fs.staging.addRangeRef(c.sf)
	}
	if end := off + need; end > of.size {
		of.size = end
	}
	switch fs.mode {
	case Strict:
		// The data is fenced before its entry is stored, so an entry that
		// survives a crash names data that survived too: the entry needs
		// no checksum over the data (DESIGN.md, "Checksums"). The entry's
		// own fence makes the write durable (§3.3).
		fs.dev.Fence()
		fs.opSeq++
		of.logSeq = fs.opSeq
		fs.appendLog(encWriteEntry(uint32(of.ino), off, uint32(need),
			uint32(c.sf.kf.Ino()), sfOff, fs.opSeq))
	case Sync:
		fs.dev.Fence()
	}
	return len(p), nil
}

// continuesActive reports whether a write at off would extend the active
// chunk's most recent staged range contiguously. Caller holds of.mu.
func (fs *FS) continuesActive(of *ofile, off int64) bool {
	if len(of.staged) == 0 {
		return false
	}
	last := of.staged[len(of.staged)-1]
	return last.sf == of.active.sf &&
		last.sfOff+last.length == of.active.base+of.active.used &&
		last.fileOff+last.length == off
}

// Truncate flushes staged state and passes through to K-Split.
func (f *File) Truncate(size int64) error {
	fs := f.of.fs
	if err := f.CheckWritable(); err != nil {
		return err
	}
	if size < 0 || size > ext4dax.MaxFileSize {
		return vfs.ErrInval
	}
	unlock, err := fs.lockMeta(metaRecordBytes(0))
	if err != nil {
		return err
	}
	defer unlock()
	fs.bookkeep()
	of := f.of
	of.mu.Lock()
	defer of.mu.Unlock()
	if !f.live() {
		return vfs.ErrClosed
	}
	// Remap event: overlay and kernel extents both change, and freed
	// blocks may be recycled (vfs.Mappable contract).
	of.mapEpoch.Add(1)
	if len(of.staged) > 0 {
		if err := fs.relinkLocked(of); err != nil {
			return err
		}
	}
	// An unlinked file's truncate dies with its last handle: nothing to
	// make durable, nothing recovery could apply it to.
	seq, err := fs.stampedMeta(func(b *ext4dax.Batch, _ uint64) (bool, error) { return of.kf.Linked(), of.kf.TruncateIn(b, size) })
	if err != nil {
		return err
	}
	// Freed blocks may be reallocated to other files: cached mappings
	// over them are stale and must be forgotten.
	fs.mmaps.trim(of.ino, size)
	of.size, of.ksize = size, size
	fs.setAttrSize(of, size)
	fs.logMeta(metaRecord{kind: metaTruncate, seq: seq, ino: of.ino, size: size})
	return nil
}

// Sync is fsync(2): relink staged data into the target file, then one
// journal commit (§3.4). Concurrent fsyncs of distinct files run their
// relinks in parallel and coalesce in K-Split's group commit into one
// journal transaction and fence pair. No strict-mode writer lock is
// needed: the relink watermark is the file's own logSeq, independent of
// the global op sequence.
//
// A Sync that loses the race with its own handle's Close may find the
// description serving another file by the time syncFiles locks it, and
// relinks that file's staged data early, as any fsync of it may; this
// file's was relinked by the Close.
func (f *File) Sync() error {
	fs := f.of.fs
	f.of.mu.RLock()
	live := f.live()
	f.of.mu.RUnlock()
	if !live {
		return vfs.ErrClosed
	}
	fs.bookkeep()
	if err := fs.syncFiles(f.of); err != nil {
		return err
	}
	fs.rewindLog()
	return nil
}

// Close decrements the shared description; staged data is relinked when
// the last handle closes (§3.4: "relinked on a subsequent fsync() or
// close()"). Cached attributes are retained (§3.5).
func (f *File) Close() error {
	unlock, err := f.of.fs.lockStrict(logEntryBytes)
	if err != nil {
		return err
	}
	defer unlock()
	return f.closeLocked()
}

// closeLocked is Close under wmu (in strict mode), with room for its log
// entry reserved.
func (f *File) closeLocked() error {
	fs := f.of.fs
	if err := f.MarkClosed(); err != nil {
		return err
	}
	fs.clk.Charge(sim.USplitClose)
	of := f.of
	fs.mu.Lock()
	of.refs--
	last := of.refs == 0
	ino := of.ino
	fs.mu.Unlock()
	if fs.mode == Strict {
		fs.appendLog(encMetaEntry(metaClose, ino))
	}
	if !last {
		return nil
	}
	// Last close: relink under only the file's own lock — the table stays
	// pointing at this description, so a re-open racing the relink shares
	// the staged overlay and observes consistent sizes throughout. The
	// table lock is held only for O(1) bookkeeping, never across I/O.
	//
	// The relink runs even when nothing is staged: a concurrent fsync
	// (another thread's, or a group SyncAll) may have popped this file's
	// staged ranges moments ago, and its group commit — or a
	// commit of metadata ops issued after it — may not be durable yet.
	// close() is a relink point (§3.4), so like the empty-staged fsync it
	// must fence and commit the running journal transaction before the
	// caller learns the close succeeded. Skipping the empty case acked
	// closes whose preceding metadata ops (e.g. a mkdir) were still
	// sitting in an uncommitted transaction — found by the served crash
	// campaign: a concurrent tenant's SyncAll relinked the file early,
	// close no-opped, and the crash rolled the mkdir back.
	of.mu.Lock()
	err := fs.relinkLocked(of)
	of.mu.Unlock()
	if err != nil {
		return err
	}
	// Retire the description only if nothing re-opened it meanwhile. The
	// kfClosed once-flag picks a unique finisher when two "last" closers
	// race via re-open, and covers the unlink path where the table entry
	// was already replaced.
	fs.mu.Lock()
	closeKF := of.refs == 0 && !of.kfClosed
	if closeKF {
		of.kfClosed = true
		if cur, ok := fs.files[of.ino]; ok && cur == of {
			delete(fs.files, of.ino)
		}
	}
	fs.mu.Unlock()
	if !closeKF {
		return nil // a concurrent re-open adopted the description
	}
	// The retiring description's active append chunk drops its
	// staging-file reference so the file can eventually be reclaimed
	// (staged data was relinked above, so the chunk holds nothing live),
	// and its life ends: a handle of this life that gets the lock from
	// here on finds it retired, whatever the description serves next.
	of.mu.Lock()
	fs.staging.releaseChunk(of.active)
	of.active = nil
	of.gen.Add(1)
	of.mu.Unlock()
	err = of.kf.Close()
	fs.park(of)
	return err
}

// Stat implements vfs.File from the cached attributes plus staged size.
func (f *File) Stat() (vfs.FileInfo, error) {
	fs := f.of.fs
	if f.Closed() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	fs.bookkeep()
	of := f.of
	of.mu.RLock()
	live := f.live()
	path, size, ino := of.path, of.size, of.ino
	of.mu.RUnlock()
	if !live {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	fs.amu.Lock()
	info := fs.attrs[path]
	fs.amu.Unlock()
	info.Ino = ino
	info.Size = size
	return info, nil
}
