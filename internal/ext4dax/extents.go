package ext4dax

// translate maps a logical block to its device block, returning the
// number of blocks that are contiguous from there (within the extent).
// ok is false for holes.
func translate(fs *FS, in *inode, logical int64) (devOff int64, contig int64, ok bool) {
	phys, contig, ok := in.extents.Lookup(logical)
	if !ok {
		return 0, 0, false
	}
	return fs.bBmp.BlockOffset(phys), contig, true
}

// blockOf returns the device offset of one logical block.
func (fs *FS) blockOf(in *inode, logical int64) (int64, bool) {
	off, _, ok := translate(fs, in, logical)
	return off, ok
}
