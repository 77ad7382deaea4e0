package logfs

import (
	"io"

	"splitfs/internal/alloc"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// File is an open logfs file handle.
type File struct {
	vfs.Handle[*File]
	fs *FS
	in *inode
}

var _ vfs.File = (*File)(nil)

// Size implements vfs.Positional.
func (f *File) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.size, nil
}

// ReadAt is pread(2).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.CheckReadable(); err != nil {
		return 0, err
	}
	fs.trap()
	fs.clk.Charge(fs.prof.ReadPathCPU)
	fs.stats.DataReads++
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if off >= f.in.size {
		return 0, io.EOF
	}
	return fs.readLocked(f.in, p, off, true), nil
}

// WriteAt is pwrite(2). In COW mode (NOVA-strict) the covered blocks are
// rewritten into freshly allocated blocks and remapped with a log entry,
// making the write atomic; otherwise data is written in place and the
// write is synchronous but not atomic.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := f.WriteEnd(p, off, false)
	return n, err
}

// WriteEnd implements vfs.Positional: the O_APPEND end of file is read
// under fs.mu, which the write holds throughout.
func (f *File) WriteEnd(p []byte, off int64, atEOF bool) (n int, end int64, err error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.CheckWritable(); err != nil {
		return 0, off, err
	}
	if atEOF {
		off = f.in.size
	}
	if off < 0 {
		return 0, off, vfs.ErrInval
	}
	fs.trap()
	fs.clk.Charge(fs.prof.WritePathCPU)
	fs.stats.DataWrites++
	switch {
	case len(p) == 0:
	case fs.prof.COW:
		n, err = fs.writeCOW(f.in, p, off)
	default:
		n, err = fs.writeInPlace(f.in, p, off)
	}
	return n, off + int64(n), err
}

// writeInPlace writes data into existing blocks, allocating for holes and
// appends. Caller holds fs.mu.
func (fs *FS) writeInPlace(in *inode, p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	var newMaps []alloc.FileExtent
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		logical := cur / blockSize
		inBlk := cur % blockSize
		devOff, contig, ok := fs.lookup(in, logical)
		if !ok {
			need := (end - cur + inBlk + blockSize - 1) / blockSize
			if holeEnd := in.extents.NextMapped(logical); holeEnd-logical < need {
				need = holeEnd - logical
			}
			e, _, err := fs.bmp.AllocExtent(pmem.SrcForeground, need)
			if err != nil {
				if n > 0 {
					break
				}
				return 0, err
			}
			in.extents.Insert(logical, e)
			newMaps = append(newMaps, alloc.FileExtent{Logical: logical, Phys: e})
			// Zero the uncovered edges of fresh blocks.
			base := fs.bmp.ExtentOffset(e)
			if inBlk > 0 {
				fs.dev.StoreNT(base, make([]byte, inBlk), sim.CatPMData)
			}
			lastByte := min(end, (logical+e.Len)*blockSize)
			if tail := (logical+e.Len)*blockSize - lastByte; tail > 0 {
				fs.dev.StoreNT(base+e.Len*blockSize-tail, make([]byte, tail), sim.CatPMData)
			}
			devOff, contig, _ = fs.lookup(in, logical)
		}
		span := contig*blockSize - inBlk
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		fs.dev.StoreNT(devOff+inBlk, p[n:n+int(span)], sim.CatPMData)
		n += int(span)
	}
	fs.dev.Fence()
	grew := end > in.size
	if grew {
		in.size = end
	}
	switch {
	case len(newMaps) > 0:
		// One record per new mapping (a single extent in the common case;
		// several only when filling fragmented holes).
		for _, m := range newMaps {
			fs.appendRecord(encWrite(in.ino, in.size, m.Logical, []alloc.Extent{m.Phys}))
		}
	case grew:
		fs.appendRecord(encSetSize(in.ino, in.size))
	default:
		// Pure in-place overwrite: PMFS/NOVA-relaxed still log the inode
		// update (mtime/size metadata) — this is the per-inode log update
		// the paper blames for NOVA-Relaxed's TPCC overhead (§5.7).
		fs.appendRecord(encSetSize(in.ino, in.size))
	}
	return n, nil
}

// writeCOW implements NOVA-strict's copy-on-write write path: fresh
// blocks for the whole covered range, edge bytes copied from the old
// blocks, data written NT, fence, then one log entry remaps — atomic and
// synchronous. Caller holds fs.mu.
func (fs *FS) writeCOW(in *inode, p []byte, off int64) (int, error) {
	fs.clk.Charge(sim.NovaCOW)
	end := off + int64(len(p))
	firstBlk := off / blockSize
	lastBlk := (end + blockSize - 1) / blockSize
	count := lastBlk - firstBlk
	exts, _, err := fs.bmp.Alloc(pmem.SrcForeground, count)
	if err != nil {
		return 0, err
	}
	// Assemble the new content block-run by block-run.
	headPad := off - firstBlk*blockSize
	tailPad := lastBlk*blockSize - end
	// Read the edge bytes that the write does not cover from the old
	// mapping (they must survive).
	var headBuf, tailBuf []byte
	if headPad > 0 {
		headBuf = make([]byte, headPad)
		fs.readLocked(in, headBuf, firstBlk*blockSize, false)
	}
	if tailPad > 0 {
		tailBuf = make([]byte, tailPad)
		fs.readLocked(in, tailBuf, end, false)
	}
	// Write new blocks.
	content := make([]byte, count*blockSize)
	copy(content, headBuf)
	copy(content[headPad:], p)
	copy(content[count*blockSize-tailPad:], tailBuf)
	pos := int64(0)
	for _, e := range exts {
		fs.dev.StoreNT(fs.bmp.ExtentOffset(e), content[pos:pos+e.Len*blockSize], sim.CatPMData)
		pos += e.Len * blockSize
	}
	fs.dev.Fence()
	// Remap atomically with one log entry; free the replaced blocks.
	old := in.extents.Extract(nil, firstBlk, count)
	place := firstBlk
	for _, e := range exts {
		in.extents.Insert(place, e)
		place += e.Len
	}
	if end > in.size {
		in.size = end
	}
	fs.appendRecord(encWrite(in.ino, in.size, firstBlk, exts))
	for _, e := range old {
		fs.bmp.Free(pmem.SrcForeground, e)
	}
	return len(p), nil
}

// readLocked copies file content at off into p, up to EOF, holes as
// zeros, and returns how much it copied: for a read(2) when user (the
// file-data read path's charge), else for COW edge preservation. Caller
// holds fs.mu.
func (fs *FS) readLocked(in *inode, p []byte, off int64, user bool) int {
	if off >= in.size {
		return 0
	}
	if m := in.size - off; int64(len(p)) > m {
		p = p[:m]
	}
	n := 0
	for n < len(p) {
		cur := off + int64(n)
		logical := cur / blockSize
		inBlk := cur % blockSize
		devOff, contig, ok := fs.lookup(in, logical)
		var span int64
		if ok {
			span = contig*blockSize - inBlk
		} else {
			span = blockSize - inBlk
		}
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		switch {
		case !ok:
			clear(p[n : n+int(span)])
		case user:
			fs.dev.ReadIntoUser(p[n:n+int(span)], devOff+inBlk, sim.CatPMData)
		default:
			fs.dev.ReadAt(p[n:n+int(span)], devOff+inBlk, sim.CatPMData)
		}
		n += int(span)
	}
	return n
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := f.CheckWritable(); err != nil {
		return err
	}
	fs.trap()
	fs.stats.MetaOps++
	fs.truncateLocked(f.in, size)
	return nil
}

// Sync is fsync(2). Operations are already synchronous in these file
// systems, so fsync only fences outstanding stores.
func (f *File) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.Closed() {
		return vfs.ErrClosed
	}
	fs.trap()
	fs.dev.Fence()
	return nil
}

// Close implements vfs.File.
func (f *File) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.MarkClosed(); err != nil {
		return err
	}
	f.fs.trap()
	return nil
}

// Stat implements vfs.File.
func (f *File) Stat() (vfs.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.Closed() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	f.fs.trap()
	return f.fs.infoOf(f.in), nil
}
