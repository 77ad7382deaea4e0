package logfs

import (
	"sort"

	"splitfs/internal/alloc"
)

// insertExt places a physical extent at a logical block position; the
// caller guarantees the range is a hole.
func insertExt(in *inode, logical int64, e alloc.Extent) {
	fe := fext{logical: logical, phys: e}
	idx := sort.Search(len(in.extents), func(i int) bool {
		return in.extents[i].logical > logical
	})
	in.extents = append(in.extents, fext{})
	copy(in.extents[idx+1:], in.extents[idx:])
	in.extents[idx] = fe
	// Merge adjacent.
	merged := in.extents[:1]
	for _, x := range in.extents[1:] {
		last := &merged[len(merged)-1]
		if last.logicalEnd() == x.logical && last.phys.End() == x.phys.Start {
			last.phys.Len += x.phys.Len
		} else {
			merged = append(merged, x)
		}
	}
	in.extents = merged
}

// removeRange unmaps [logical, logical+count) and returns the physical
// extents that backed it.
func removeRange(in *inode, logical, count int64) []alloc.Extent {
	to := logical + count
	var removed []alloc.Extent
	var keep []fext
	for _, e := range in.extents {
		if e.logicalEnd() <= logical || e.logical >= to {
			keep = append(keep, e)
			continue
		}
		if e.logical < logical {
			keep = append(keep, fext{logical: e.logical,
				phys: alloc.Extent{Start: e.phys.Start, Len: logical - e.logical}})
		}
		ovStart := maxi(e.logical, logical)
		ovEnd := mini(e.logicalEnd(), to)
		removed = append(removed, alloc.Extent{
			Start: e.phys.Start + (ovStart - e.logical),
			Len:   ovEnd - ovStart,
		})
		if e.logicalEnd() > to {
			keep = append(keep, fext{logical: to,
				phys: alloc.Extent{
					Start: e.phys.Start + (to - e.logical),
					Len:   e.logicalEnd() - to,
				}})
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].logical < keep[j].logical })
	in.extents = keep
	return removed
}

// shrinkTo drops all blocks at or past the block containing size (used in
// replay, where freed blocks are reclaimed by the mount-time allocator
// rebuild).
func shrinkTo(in *inode, size int64) []alloc.Extent {
	from := (size + blockSize - 1) / blockSize
	freed := removeRange(in, from, 1<<40)
	in.size = size
	return freed
}

// lookup translates a logical block to (device offset, contiguous
// blocks). Caller converts via the allocator's data base.
func (fs *FS) lookup(in *inode, logical int64) (devOff, contig int64, ok bool) {
	idx := sort.Search(len(in.extents), func(i int) bool {
		return in.extents[i].logicalEnd() > logical
	})
	if idx == len(in.extents) || in.extents[idx].logical > logical {
		return 0, 0, false
	}
	e := in.extents[idx]
	d := logical - e.logical
	return fs.bmp.BlockOffset(e.phys.Start + d), e.phys.Len - d, true
}

// nextMappedAt returns the first mapped logical block >= logical.
func nextMappedAt(in *inode, logical int64) int64 {
	for _, e := range in.extents {
		if e.logicalEnd() > logical {
			if e.logical > logical {
				return e.logical
			}
			return logical
		}
	}
	return 1 << 60
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
