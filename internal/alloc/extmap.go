package alloc

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// FileExtent maps a run of logical file blocks onto physical blocks.
type FileExtent struct {
	Logical int64 // first logical block in the file
	Phys    Extent
}

// LogicalEnd returns the first logical block after the extent.
func (e FileExtent) LogicalEnd() int64 { return e.Logical + e.Phys.Len }

// ExtentMap is a file's logical-to-physical block map, shared by the
// extent-based file systems of this repository. It is sorted by logical
// block, disjoint, free of empty extents and maximally merged: two
// records that are adjacent both logically and physically are one record.
// Every edit keeps that by looking only at the records it touches, so an
// edit costs what it moves, not what the file owns — and because the
// records are exactly the file's physically contiguous spans, everything
// that walks a file span by span (a mapping's loads and stores, a lease's
// extents) sees the same spans however the map got there.
type ExtentMap []FileExtent

// End returns the file's logical block count: the end of the last extent.
func (m ExtentMap) End() int64 {
	if len(m) == 0 {
		return 0
	}
	return m[len(m)-1].LogicalEnd()
}

// Lookup translates a logical block to its physical block and the number
// of blocks contiguous from there within the extent. ok is false in a
// hole.
func (m ExtentMap) Lookup(logical int64) (phys, contig int64, ok bool) {
	i := sort.Search(len(m), func(i int) bool { return m[i].LogicalEnd() > logical })
	if i == len(m) || m[i].Logical > logical {
		return 0, 0, false
	}
	d := logical - m[i].Logical
	return m[i].Phys.Start + d, m[i].Phys.Len - d, true
}

// NextMapped returns the first mapped logical block at or after logical,
// or a very large value when there is none.
func (m ExtentMap) NextMapped(logical int64) int64 {
	i := sort.Search(len(m), func(i int) bool { return m[i].LogicalEnd() > logical })
	if i == len(m) {
		return 1 << 60
	}
	return max(m[i].Logical, logical)
}

// Insert places a physical extent at a logical block position, merging
// it with the neighbour on either side when adjacent there both logically
// and physically. The caller guarantees [logical, logical+e.Len) is a
// hole; inserting at End appends.
func (m *ExtentMap) Insert(logical int64, e Extent) {
	s := *m
	i := sort.Search(len(s), func(i int) bool { return s[i].Logical > logical })
	prev := i > 0 && s[i-1].LogicalEnd() == logical && s[i-1].Phys.End() == e.Start
	next := i < len(s) && s[i].Logical == logical+e.Len && s[i].Phys.Start == e.End()
	switch {
	case prev && next:
		s[i-1].Phys.Len += e.Len + s[i].Phys.Len
		*m = slices.Delete(s, i, i+1)
	case prev:
		s[i-1].Phys.Len += e.Len
	case next:
		s[i] = FileExtent{Logical: logical, Phys: Extent{Start: e.Start, Len: e.Len + s[i].Phys.Len}}
	default:
		*m = slices.Insert(s, i, FileExtent{Logical: logical, Phys: e})
	}
}

// Extract unmaps the logical block range [from, from+count) and appends
// the physical extents that backed it, in logical order, to dst. Holes in
// the range yield nothing; an extent straddling either boundary is split,
// so at most two edge records replace the run of records the range
// touched.
func (m *ExtentMap) Extract(dst []Extent, from, count int64) []Extent {
	s, to := *m, from+count
	lo := sort.Search(len(s), func(i int) bool { return s[i].LogicalEnd() > from })
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Logical >= to })
	if lo == hi {
		return dst
	}
	removed := slices.Grow(dst, hi-lo)
	for _, e := range s[lo:hi] {
		a, b := max(e.Logical, from), min(e.LogicalEnd(), to)
		removed = append(removed, Extent{Start: e.Phys.Start + (a - e.Logical), Len: b - a})
	}
	var edges [2]FileExtent
	n := 0
	if h := s[lo]; h.Logical < from {
		edges[n] = FileExtent{Logical: h.Logical, Phys: Extent{Start: h.Phys.Start, Len: from - h.Logical}}
		n++
	}
	if t := s[hi-1]; t.LogicalEnd() > to {
		edges[n] = FileExtent{Logical: to, Phys: Extent{Start: t.Phys.Start + (to - t.Logical), Len: t.LogicalEnd() - to}}
		n++
	}
	*m = slices.Replace(s, lo, hi, edges[:n]...)
	return removed
}

// Truncate unmaps every block at or after from and appends the physical
// extents freed to dst.
func (m *ExtentMap) Truncate(dst []Extent, from int64) []Extent {
	return m.Extract(dst, from, math.MaxInt64-from)
}

// Check reports the first violation of the map's invariant.
func (m ExtentMap) Check() error {
	for i, e := range m {
		if e.Logical < 0 || e.Phys.Len <= 0 {
			return fmt.Errorf("extent %d (logical %d, phys %v) is empty or negative", i, e.Logical, e.Phys)
		}
		if i == 0 {
			continue
		}
		switch p := m[i-1]; {
		case p.LogicalEnd() > e.Logical:
			return fmt.Errorf("extent %d (logical %d) starts before extent %d ends (%d)", i, e.Logical, i-1, p.LogicalEnd())
		case p.LogicalEnd() == e.Logical && p.Phys.End() == e.Phys.Start:
			return fmt.Errorf("extents %d and %d (logical %d, phys %v) are adjacent and unmerged", i-1, i, e.Logical, e.Phys)
		}
	}
	return nil
}
