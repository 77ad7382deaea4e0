package ext4dax

import (
	"sort"

	"splitfs/internal/alloc"
)

// appendFileExtent adds a physical extent at the end of the file's
// logical block space, merging with the last extent when physically
// contiguous.
func appendFileExtent(in *inode, e alloc.Extent) {
	logical := int64(0)
	if n := len(in.extents); n > 0 {
		last := &in.extents[n-1]
		logical = last.logicalEnd()
		if last.phys.End() == e.Start {
			last.phys.Len += e.Len
			return
		}
	}
	in.extents = append(in.extents, fileExtent{logical: logical, phys: e})
}

// insertFileExtent places a physical extent at an arbitrary logical block
// position (used for hole-filling writes and relinked extents). The caller
// guarantees the logical range [logical, logical+e.Len) is currently a
// hole.
func insertFileExtent(in *inode, logical int64, e alloc.Extent) {
	fe := fileExtent{logical: logical, phys: e}
	idx := sort.Search(len(in.extents), func(i int) bool {
		return in.extents[i].logical > logical
	})
	in.extents = append(in.extents, fileExtent{})
	copy(in.extents[idx+1:], in.extents[idx:])
	in.extents[idx] = fe
	mergeExtents(in)
}

// mergeExtents coalesces logically and physically adjacent extents.
func mergeExtents(in *inode) {
	if len(in.extents) < 2 {
		return
	}
	out := in.extents[:1]
	for _, e := range in.extents[1:] {
		last := &out[len(out)-1]
		if last.logicalEnd() == e.logical && last.phys.End() == e.phys.Start {
			last.phys.Len += e.phys.Len
		} else {
			out = append(out, e)
		}
	}
	in.extents = out
}

// translate maps a logical block to its device block, returning the
// number of blocks that are contiguous from there (within the extent).
// ok is false for holes.
func translate(fs *FS, in *inode, logical int64) (devOff int64, contig int64, ok bool) {
	idx := sort.Search(len(in.extents), func(i int) bool {
		return in.extents[i].logicalEnd() > logical
	})
	if idx == len(in.extents) || in.extents[idx].logical > logical {
		return 0, 0, false
	}
	e := in.extents[idx]
	delta := logical - e.logical
	return fs.bBmp.BlockOffset(e.phys.Start + delta), e.phys.Len - delta, true
}

// blockOf returns the device offset of one logical block.
func (fs *FS) blockOf(in *inode, logical int64) (int64, bool) {
	off, _, ok := translate(fs, in, logical)
	return off, ok
}

// truncateExtents removes all blocks at or after the given logical block,
// returning the freed physical extents. Partial extents are split.
func truncateExtents(in *inode, fromLogical int64) []alloc.Extent {
	var freed []alloc.Extent
	var keep []fileExtent
	for _, e := range in.extents {
		switch {
		case e.logicalEnd() <= fromLogical:
			keep = append(keep, e)
		case e.logical >= fromLogical:
			freed = append(freed, e.phys)
		default: // straddles: keep the head, free the tail
			headLen := fromLogical - e.logical
			keep = append(keep, fileExtent{
				logical: e.logical,
				phys:    alloc.Extent{Start: e.phys.Start, Len: headLen},
			})
			freed = append(freed, alloc.Extent{
				Start: e.phys.Start + headLen,
				Len:   e.phys.Len - headLen,
			})
		}
	}
	in.extents = keep
	return freed
}

// extractExtents removes the logical block range [from, from+count) from
// the file and returns the physical extents that backed it (for
// Relink). Holes in the range yield nothing. Extents straddling the
// boundaries are split.
func extractExtents(in *inode, from, count int64) []alloc.Extent {
	to := from + count
	var removed []alloc.Extent
	var keep []fileExtent
	for _, e := range in.extents {
		if e.logicalEnd() <= from || e.logical >= to {
			keep = append(keep, e)
			continue
		}
		// Overlap: possibly keep a head and/or tail.
		if e.logical < from {
			headLen := from - e.logical
			keep = append(keep, fileExtent{
				logical: e.logical,
				phys:    alloc.Extent{Start: e.phys.Start, Len: headLen},
			})
		}
		ovStart := max64(e.logical, from)
		ovEnd := min64(e.logicalEnd(), to)
		removed = append(removed, alloc.Extent{
			Start: e.phys.Start + (ovStart - e.logical),
			Len:   ovEnd - ovStart,
		})
		if e.logicalEnd() > to {
			tailLen := e.logicalEnd() - to
			keep = append(keep, fileExtent{
				logical: to,
				phys: alloc.Extent{
					Start: e.phys.Start + (to - e.logical),
					Len:   tailLen,
				},
			})
		}
	}
	in.extents = keep
	return removed
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
