package ext4dax

import (
	"fmt"

	"splitfs/internal/alloc"
)

// Check is the structural check a recovered (or live) image must pass,
// beyond what reading names and contents back can see: every inode's
// extent map keeps its invariant (alloc.ExtentMap.Check), the inode's
// block count equals what the map holds, and every block an inode owns —
// data or extent-overflow leaf — is marked in the block bitmap and owned
// exactly once; and every inode's link count equals the entries naming it
// (a directory's: 2 plus its child directories); and the journal is at
// rest (journal.Check). It returns the number of blocks owned. It does not yet assert that every marked block is owned,
// nor compare the link count of a file no entry names: the orphan list is
// DRAM-only, so a crash with an unlinked file open leaves its inode,
// record and blocks, behind by design (DESIGN.md, "Known non-goals").
func (fs *FS) Check() (owned int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.jnl.Check(); err != nil {
		return 0, err
	}
	seen := make([]bool, fs.lay.DataBlocks)
	claim := func(in *inode, e alloc.Extent) error {
		for b := e.Start; b < e.End(); b++ {
			switch {
			case b < 0 || b >= fs.lay.DataBlocks:
				return fmt.Errorf("ext4dax: inode %d owns block %d, outside the device", in.ino, b)
			case seen[b]:
				return fmt.Errorf("ext4dax: block %d is owned twice (again by inode %d)", b, in.ino)
			case !fs.bBmp.Allocated(b):
				return fmt.Errorf("ext4dax: inode %d owns block %d, free in the bitmap", in.ino, b)
			}
			seen[b] = true
		}
		owned += e.Len
		return nil
	}
	links := map[uint64]uint32{} // what the namespace says each link count is
	for ino := uint64(1); ino < uint64(fs.lay.MaxInodes); ino++ {
		in := fs.icache[ino]
		if in == nil {
			continue
		}
		if in.isDir {
			if err := fs.ensureDir(in); err != nil {
				return 0, fmt.Errorf("ext4dax: directory %d: %w", ino, err)
			}
			for _, de := range in.entries {
				if fs.icache[de.ino] == nil {
					return 0, fmt.Errorf("ext4dax: directory %d names %q, inode %d, which does not exist", ino, de.name, de.ino)
				}
				if de.isDir {
					links[ino]++ // the child's ".."
				} else {
					links[de.ino]++
				}
			}
		}
		if err := in.extents.Check(); err != nil {
			return 0, fmt.Errorf("ext4dax: inode %d: %w", ino, err)
		}
		var sum int64
		for _, e := range in.extents {
			if err := claim(in, e.Phys); err != nil {
				return 0, err
			}
			sum += e.Phys.Len
		}
		if sum != in.blocks {
			return 0, fmt.Errorf("ext4dax: inode %d counts %d blocks, its extents hold %d", ino, in.blocks, sum)
		}
		for _, blk := range in.overflow {
			if err := claim(in, alloc.Extent{Start: blk, Len: 1}); err != nil {
				return 0, err
			}
		}
	}
	for ino := uint64(1); ino < uint64(fs.lay.MaxInodes); ino++ {
		in, want := fs.icache[ino], links[ino]
		switch {
		case in == nil, !in.isDir && want == 0: // free, or an orphan
			continue
		case in.isDir:
			want += 2
		}
		if in.nlink != want {
			return 0, fmt.Errorf("ext4dax: inode %d has link count %d, the namespace holds %d", ino, in.nlink, want)
		}
	}
	return owned, nil
}
