package ext4dax

import (
	"encoding/binary"
	"math"
	"strings"

	"splitfs/internal/alloc"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU16(b []byte) uint16    { return binary.LittleEndian.Uint16(b) }

// ensureDir populates a directory inode's entry cache from its data
// blocks (the dcache fill on first access). Caller holds fs.mu.
func (fs *FS) ensureDir(in *inode) error {
	if in.entries != nil {
		return nil
	}
	in.entries = make(map[string]dirEntry)
	in.tailOff = 0
	in.freeSlots = nil
	nblocks := in.blocks
	for b := int64(0); b < nblocks; b++ {
		devOff, ok := fs.blockOf(in, b)
		if !ok {
			continue
		}
		blk := make([]byte, sim.BlockSize)
		fs.dev.ReadAt(blk, devOff, sim.CatPMMeta)
		pos := int64(0)
		for pos+12 <= sim.BlockSize {
			ino := getU64(blk[pos : pos+8])
			nameLen := int64(getU16(blk[pos+8 : pos+10]))
			if nameLen == 0 { // end of records in this block
				break
			}
			if pos+12+nameLen > sim.BlockSize {
				break // corrupt tail; treat as end
			}
			if ino != 0 {
				name := string(blk[pos+12 : pos+12+nameLen])
				in.entries[name] = dirEntry{
					ino:    ino,
					isDir:  blk[pos+10] == 1,
					devOff: devOff + pos,
				}
			} else { // a tombstone
				in.freeSlot(devOff+pos, 12+nameLen)
			}
			pos += 12 + nameLen
			in.tailOff = b*sim.BlockSize + pos
		}
	}
	return nil
}

// freeSlot records a tombstoned directory record for reuse.
func (in *inode) freeSlot(devOff, recLen int64) {
	if in.freeSlots == nil {
		in.freeSlots = make(map[int64][]int64)
	}
	in.freeSlots[recLen] = append(in.freeSlots[recLen], devOff)
}

// addDirent writes a directory entry record over a tombstone of the same
// length or, failing that, at the directory file's tail, and updates the
// cache. Caller holds fs.mu.
func (fs *FS) addDirent(dir *inode, name string, ino uint64, isDir bool) error {
	fs.clk.Charge(sim.Ext4DirOp)
	if err := fs.ensureDir(dir); err != nil {
		return err
	}
	fs.dirent = appendDirent(fs.dirent[:0], ino, isDir, name)
	rec := fs.dirent
	need := int64(len(rec))
	var devOff int64
	if free := dir.freeSlots[need]; len(free) > 0 {
		devOff = free[len(free)-1]
		dir.freeSlots[need] = free[:len(free)-1]
	} else {
		var err error
		if devOff, err = fs.extendDir(dir, need); err != nil {
			return err
		}
	}
	fs.dev.As(fs.src).StoreBuffered(devOff, rec, sim.CatPMMeta)
	fs.note(devOff, len(rec))
	dir.entries[name] = dirEntry{ino: ino, isDir: isDir, devOff: devOff}
	fs.writeInode(dir)
	return nil
}

// extendDir claims need bytes at the directory file's tail, allocating a
// block when needed, and returns their device offset. Caller holds fs.mu.
func (fs *FS) extendDir(dir *inode, need int64) (int64, error) {
	// Records never straddle a block boundary: skip to the next block if
	// the remainder cannot hold this record.
	if rem := sim.BlockSize - dir.tailOff%sim.BlockSize; rem < need {
		dir.tailOff += rem
	}
	// Grow the directory file if the tail is past the allocated blocks.
	for dir.tailOff+need > dir.blocks*sim.BlockSize {
		if fs.bBmp.FreeCount()-fs.leafRes-newLeaves(dir, 1) < 1 { // the leaf the record may need comes first
			return 0, vfs.ErrNoSpace
		}
		e, dirty, err := fs.bBmp.AllocExtent(fs.src, 1)
		if err != nil {
			return 0, err
		}
		fs.note(dirty.Off, dirty.Len)
		// Zero the fresh directory block so record parsing terminates.
		fs.dev.As(fs.src).StoreBuffered(fs.bBmp.ExtentOffset(e), make([]byte, sim.BlockSize), sim.CatPMMeta)
		fs.note(fs.bBmp.ExtentOffset(e), sim.BlockSize)
		dir.extents.Insert(dir.extents.End(), e)
		dir.blocks += e.Len
	}
	devOff, ok := fs.blockOf(dir, dir.tailOff/sim.BlockSize)
	if !ok {
		return 0, vfs.ErrInval
	}
	devOff += dir.tailOff % sim.BlockSize
	dir.tailOff += need
	if dir.tailOff > dir.size {
		dir.size = dir.tailOff
	}
	return devOff, nil
}

// removeDirent tombstones an entry on disk and removes it from the cache.
// Caller holds fs.mu.
func (fs *FS) removeDirent(dir *inode, name string) error {
	fs.clk.Charge(sim.Ext4DirOp)
	if err := fs.ensureDir(dir); err != nil {
		return err
	}
	de, ok := dir.entries[name]
	if !ok {
		return vfs.ErrNotExist
	}
	// Tombstone: zero the ino field, keep nameLen so parsers skip it.
	var zero [8]byte
	fs.dev.As(fs.src).StoreBuffered(de.devOff, zero[:], sim.CatPMMeta)
	fs.note(de.devOff, 8)
	delete(dir.entries, name)
	dir.freeSlot(de.devOff, direntSize(name))
	return nil
}

// resolve walks a path to its inode, one component of its clean form
// at a time, in place. Caller holds fs.mu.
func (fs *FS) resolve(path string) (*inode, error) {
	cur := fs.icache[RootIno]
	for rest := vfs.CleanPath(path)[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if !cur.isDir {
			return nil, vfs.ErrNotDir
		}
		fs.clk.Charge(sim.Ext4DirOp)
		if err := fs.ensureDir(cur); err != nil {
			return nil, err
		}
		de, ok := cur.entries[name]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		next, ok := fs.icache[de.ino]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// resolveDir resolves the parent directory of a path and returns it with
// the base name. Caller holds fs.mu.
func (fs *FS) resolveDir(path string) (*inode, string, error) {
	dir, base := vfs.SplitDir(path)
	if base == "" {
		return nil, "", vfs.ErrInval
	}
	parent, err := fs.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir {
		return nil, "", vfs.ErrNotDir
	}
	if err := fs.ensureDir(parent); err != nil {
		return nil, "", err
	}
	// The caller will look up or insert base in this directory.
	fs.clk.Charge(sim.Ext4DirOp)
	return parent, base, nil
}

// allocInode reserves a fresh inode number: want, or when want is 0 the
// lowest free one, as ext4's find_inode_bit takes the first clear bit of
// its group — so inodes made close together, a file and the staging file
// it relinks from among them, share an inode-table block and a commit
// journals one image of it (DESIGN.md, "Inode placement"). A freed number
// is free in the bitmap only once its free has committed (deferFree): a
// create that would find none free while the running transaction holds
// one commits it when its handle starts (createClaim). The new inode's
// watermark is the highest any inode has carried (uwmMax). Caller holds
// fs.mu.
func (fs *FS) allocInode(isDir bool, want uint64) (*inode, error) {
	var (
		e     = alloc.Extent{Start: int64(want), Len: 1}
		dirty alloc.ByteRange
		err   error
	)
	if want == 0 {
		e, dirty, err = fs.iBmp.AllocLowest(fs.src)
	} else {
		dirty, err = fs.iBmp.AllocAt(fs.src, e)
	}
	if err != nil {
		return nil, err
	}
	fs.note(dirty.Off, dirty.Len)
	var in *inode
	if n := len(fs.spare); n > 0 && !isDir {
		in = fs.spare[n-1]
		fs.spare[n-1] = nil
		fs.spare = fs.spare[:n-1]
		// freeInode left its size, blocks, extents and leaves at zero,
		// with the storage of both lists in place, and a file is freed
		// with no handle open; its generation and map epoch keep
		// counting.
		in.mu.Lock()
		in.ino, in.nlink, in.uwm, in.orphan, in.mapped = uint64(e.Start), 1, fs.uwmMax, false, false
		in.mu.Unlock()
	} else {
		in = &inode{ino: uint64(e.Start), isDir: isDir, nlink: 1, uwm: fs.uwmMax}
	}
	if isDir {
		in.nlink = 2
		in.entries = make(map[string]dirEntry)
	}
	fs.icache[in.ino] = in
	return in, nil
}

// freeInode releases an inode's data blocks, overflow blocks, and number,
// and moves its generation and map epoch on: no handle of it reaches
// whatever the record serves next, and no lease of it validates again. A
// file's record joins freed, to be reused once the free has committed
// (FS.spare). Caller holds fs.mu; the inode lock is taken here because
// freeing the extents races lock-free readers still holding a handle.
func (fs *FS) freeInode(in *inode) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.gen++
	in.mapEpoch.Add(1)
	for _, e := range in.extents {
		fs.deferFree(fs.bBmp, e.Phys)
	}
	for _, blk := range in.overflow {
		fs.deferFree(fs.bBmp, alloc.Extent{Start: blk, Len: 1})
	}
	in.extents, in.overflow = in.extents[:0], in.overflow[:0]
	in.size, in.blocks = 0, 0
	fs.deferFree(fs.iBmp, alloc.Extent{Start: int64(in.ino), Len: 1})
	// Blocks relinks took out of the file go the way of its own: no one
	// remaps a file that is gone.
	fs.remapped(in, 0, math.MaxInt64)
	delete(fs.icache, in.ino)
	if !in.isDir && len(fs.freed)+len(fs.spare) < maxSpareInodes {
		fs.freed = append(fs.freed, in)
	}
}
