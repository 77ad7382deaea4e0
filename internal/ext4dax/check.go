package ext4dax

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"splitfs/internal/alloc"
)

// Check is the structural check a recovered (or live) image must pass,
// beyond what reading names and contents back can see: every inode's
// extent map keeps its invariant (alloc.ExtentMap.Check), the inode's
// block count equals what the map holds, and every block an inode owns —
// data or extent-overflow leaf — is marked in the block bitmap and owned
// exactly once; and every inode's link count equals the entries naming it
// (a directory's: 2 plus its child directories); and the journal is at
// rest (journal.Check); and every inode's record and leaf chain, decoded
// from the device's volatile view, is the cached inode — extents, leaf
// blocks, size, block count, link count, watermark — so the image a Mount
// would read is the one the cache describes. It returns the number of
// blocks owned. It does not yet assert that every marked block is owned,
// nor compare the link count of a file no entry names: the orphan list is
// DRAM-only, so a crash with an unlinked file open leaves its inode,
// record and blocks, behind by design (DESIGN.md, "Known non-goals"), and
// the record of a file unlinked while open keeps the link count it was
// last written with.
func (fs *FS) Check() (owned int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.jnl.Check(); err != nil {
		return 0, err
	}
	seen := make([]bool, fs.lay.DataBlocks)
	claim := func(in *inode, e alloc.Extent) error {
		if e.Start < 0 || e.End() > fs.lay.DataBlocks {
			return fmt.Errorf("ext4dax: inode %d owns blocks %v, outside the device", in.ino, e)
		}
		if b := fs.bBmp.First(e.Start, e.End(), false); b < e.End() {
			return fmt.Errorf("ext4dax: inode %d owns block %d, free in the bitmap", in.ino, b)
		}
		for b := e.Start; b < e.End(); b++ {
			if seen[b] {
				return fmt.Errorf("ext4dax: block %d is owned twice (again by inode %d)", b, in.ino)
			}
			seen[b] = true
		}
		owned += e.Len
		return nil
	}
	ins := slices.SortedFunc(maps.Values(fs.icache), func(a, b *inode) int { return cmp.Compare(a.ino, b.ino) })
	links := make([]uint32, fs.lay.MaxInodes) // what the namespace says each link count is
	for _, in := range ins {
		ino := in.ino
		if in.isDir {
			if err := fs.ensureDir(in); err != nil {
				return 0, fmt.Errorf("ext4dax: directory %d: %w", ino, err)
			}
			for name, de := range in.entries {
				if fs.icache[de.ino] == nil {
					return 0, fmt.Errorf("ext4dax: directory %d names %q, inode %d, which does not exist", ino, name, de.ino)
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
	for _, in := range ins {
		want := links[in.ino]
		switch {
		case !in.isDir && want == 0: // an orphan
			continue
		case in.isDir:
			want += 2
		}
		if in.nlink != want {
			return 0, fmt.Errorf("ext4dax: inode %d has link count %d, the namespace holds %d", in.ino, in.nlink, want)
		}
	}
	for _, in := range ins {
		media, err := fs.loadInode(in.ino, fs.dev.Peek)
		if err != nil {
			return 0, fmt.Errorf("ext4dax: reading inode %d back: %w", in.ino, err)
		}
		if what := media.differs(in); what != "" {
			return 0, fmt.Errorf("ext4dax: inode %d on media differs from the cache: %s", in.ino, what)
		}
	}
	return owned, nil
}

// differs describes the first field in which an inode decoded from media
// differs from the cached one c, or returns "".
func (in *inode) differs(c *inode) string {
	switch {
	case !slices.Equal(in.extents, c.extents):
		i := 0
		for i < min(len(in.extents), len(c.extents)) && in.extents[i] == c.extents[i] {
			i++
		}
		return fmt.Sprintf("%d extents against %d, first different at %d", len(in.extents), len(c.extents), i)
	case !slices.Equal(in.overflow, c.overflow):
		return fmt.Sprintf("leaf blocks %v against %v", in.overflow, c.overflow)
	case in.size != c.size:
		return fmt.Sprintf("size %d against %d", in.size, c.size)
	case in.blocks != c.blocks:
		return fmt.Sprintf("block count %d against %d", in.blocks, c.blocks)
	case in.nlink != c.nlink && !c.orphan:
		return fmt.Sprintf("link count %d against %d", in.nlink, c.nlink)
	case in.uwm != c.uwm:
		return fmt.Sprintf("watermark %d against %d", in.uwm, c.uwm)
	case in.isDir != c.isDir:
		return fmt.Sprintf("directory flag %v against %v", in.isDir, c.isDir)
	}
	return ""
}
