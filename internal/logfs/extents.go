package logfs

import "splitfs/internal/alloc"

// shrinkTo drops all blocks at or past the block containing size (used in
// replay, where freed blocks are reclaimed by the mount-time allocator
// rebuild).
func shrinkTo(in *inode, size int64) []alloc.Extent {
	freed := in.extents.Truncate(nil, (size+blockSize-1)/blockSize)
	in.size = size
	return freed
}

// lookup translates a logical block to (device offset, contiguous
// blocks).
func (fs *FS) lookup(in *inode, logical int64) (devOff, contig int64, ok bool) {
	phys, contig, ok := in.extents.Lookup(logical)
	if !ok {
		return 0, 0, false
	}
	return fs.bmp.BlockOffset(phys), contig, true
}
