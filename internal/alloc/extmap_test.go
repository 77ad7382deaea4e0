package alloc

import (
	"slices"
	"sort"
	"testing"
)

// refMap is the reference FuzzExtentMap compares ExtentMap with: the
// extent list as ext4dax and logfs each kept it before they shared one —
// every extract and truncate rebuilds the list from nothing, every insert
// re-merges all of it. Slow and obviously right.
type refMap []FileExtent

func (m *refMap) insert(logical int64, e Extent) {
	s := *m
	idx := sort.Search(len(s), func(i int) bool { return s[i].Logical > logical })
	s = append(s, FileExtent{})
	copy(s[idx+1:], s[idx:])
	s[idx] = FileExtent{Logical: logical, Phys: e}
	out := s[:1]
	for _, e := range s[1:] {
		last := &out[len(out)-1]
		if last.LogicalEnd() == e.Logical && last.Phys.End() == e.Phys.Start {
			last.Phys.Len += e.Phys.Len
		} else {
			out = append(out, e)
		}
	}
	*m = out
}

func (m *refMap) truncate(fromLogical int64) []Extent {
	var freed []Extent
	var keep []FileExtent
	for _, e := range *m {
		switch {
		case e.LogicalEnd() <= fromLogical:
			keep = append(keep, e)
		case e.Logical >= fromLogical:
			freed = append(freed, e.Phys)
		default: // straddles: keep the head, free the tail
			headLen := fromLogical - e.Logical
			keep = append(keep, FileExtent{Logical: e.Logical, Phys: Extent{Start: e.Phys.Start, Len: headLen}})
			freed = append(freed, Extent{Start: e.Phys.Start + headLen, Len: e.Phys.Len - headLen})
		}
	}
	*m = keep
	return freed
}

func (m *refMap) extract(from, count int64) []Extent {
	to := from + count
	var removed []Extent
	var keep []FileExtent
	for _, e := range *m {
		if e.LogicalEnd() <= from || e.Logical >= to {
			keep = append(keep, e)
			continue
		}
		if e.Logical < from {
			keep = append(keep, FileExtent{Logical: e.Logical, Phys: Extent{Start: e.Phys.Start, Len: from - e.Logical}})
		}
		ovStart, ovEnd := max(e.Logical, from), min(e.LogicalEnd(), to)
		removed = append(removed, Extent{Start: e.Phys.Start + (ovStart - e.Logical), Len: ovEnd - ovStart})
		if e.LogicalEnd() > to {
			keep = append(keep, FileExtent{Logical: to,
				Phys: Extent{Start: e.Phys.Start + (to - e.Logical), Len: e.LogicalEnd() - to}})
		}
	}
	*m = keep
	return removed
}

// FuzzExtentMap drives one random sequence of edits, decoded from the
// fuzz input, on an ExtentMap and on the reference, and after every step
// requires equal lists, equal returned physical extents, the map's
// invariant, and Lookup / NextMapped / End agreeing with a scan of the
// reference. Each op is three bytes — opcode, position, length:
//
//	0 insert a fresh extent into the hole at (or after) the position
//	1 extract [position, position+length)
//	2 truncate at the position
//	3 append a fresh extent at End
//	4 put the blocks of the last extract back where they were, which is
//	  what bridges two neighbours
//
// Odd lengths make a fresh extent physically next to its left neighbour.
// A sequence ends when the input does, or after extentFuzzMaxOps ops.
func FuzzExtentMap(f *testing.F) {
	const extentFuzzMaxOps = 256
	f.Add([]byte("\x03\x00\x09\x01\x03\x03\x04\x00\x00"))                         // extract inside one extent: two edges; put back: bridges both
	f.Add([]byte("\x03\x00\x07\x01\x00\x03\x01\x05\x02\x04\x00\x00"))             // boundary splits: one leaves a tail only, the next a head only
	f.Add([]byte("\x03\x00\x02\x00\x06\x02\x00\x0c\x04\x01\x01\x0f\x04\x00\x00")) // extract spanning holes, put back
	f.Add([]byte("\x03\x00\x08\x02\x03\x00\x02\x03\x00\x03\x00\x03"))             // truncate inside an extent, at its end, append merges
	f.Add([]byte("\x03\x00\x04\x03\x00\x05\x03\x00\x03\x01\x04\x05\x00\x04\x05")) // merging appends; an insert that bridges two neighbours
	f.Add([]byte("\x00\x14\x02\x00\x0a\x02\x00\x0c\x03\x00\x00\x01\x01\x00\x3f")) // inserts out of order, one past a mapped block; a wide extract
	f.Fuzz(func(t *testing.T, in []byte) {
		var got ExtentMap
		var ref refMap
		var last []FileExtent // what the last extract removed, by logical block
		fresh := int64(1000)  // physical blocks no extent has had
		place := func(logical, n int64, odd bool) {
			e := Extent{Start: fresh, Len: n}
			if i := sort.Search(len(ref), func(i int) bool { return ref[i].Logical >= logical }); odd && i > 0 {
				e.Start = ref[i-1].Phys.End() // merges when also logically next
			}
			fresh += n + 1
			got.Insert(logical, e)
			ref.insert(logical, e)
			last = nil
		}
		for step := 0; len(in) >= 3 && step < extentFuzzMaxOps; step, in = step+1, in[3:] {
			pos, n := int64(in[1]%64), int64(in[2]%16)+1
			var a, b []Extent
			switch in[0] % 5 {
			case 0:
				for _, e := range ref {
					if e.Logical <= pos && pos < e.LogicalEnd() {
						pos = e.LogicalEnd() // mapped: the hole after it
					}
				}
				for _, e := range ref {
					if e.Logical >= pos {
						n = min(n, e.Logical-pos) // no further than the hole goes
						break
					}
				}
				if n > 0 {
					place(pos, n, in[2]%2 == 1)
				}
			case 1:
				last = nil
				for _, e := range ref {
					if lo, hi := max(e.Logical, pos), min(e.LogicalEnd(), pos+n); lo < hi {
						last = append(last, FileExtent{Logical: lo, Phys: Extent{Start: e.Phys.Start + lo - e.Logical, Len: hi - lo}})
					}
				}
				a, b = got.Extract(nil, pos, n), ref.extract(pos, n)
				for i, e := range last {
					if i >= len(a) || a[i] != e.Phys {
						t.Fatalf("step %d: extract [%d,+%d) returned %v, the reference held %v there", step, pos, n, a, last)
					}
				}
			case 2:
				a, b = got.Truncate(nil, pos), ref.truncate(pos)
				last = nil
			case 3:
				place(got.End(), n, in[2]%2 == 1)
			case 4:
				for _, e := range last {
					got.Insert(e.Logical, e.Phys)
					ref.insert(e.Logical, e.Phys)
				}
				last = nil
			}
			if !slices.Equal(a, b) {
				t.Fatalf("step %d (op %d at %d, %d blocks): returned %v, reference %v", step, in[0]%5, pos, n, a, b)
			}
			if !slices.Equal(got, ExtentMap(ref)) {
				t.Fatalf("step %d (op %d at %d, %d blocks):\n map %v\n ref %v", step, in[0]%5, pos, n, got, ref)
			}
			if err := got.Check(); err != nil {
				t.Fatalf("step %d (op %d at %d, %d blocks): %v in %v", step, in[0]%5, pos, n, err, got)
			}
			checkLookups(t, got, ref)
		}
	})
}

// checkLookups compares the map's binary searches with a scan of the
// reference, block by block.
func checkLookups(t *testing.T, got ExtentMap, ref refMap) {
	t.Helper()
	end, nextMapped := int64(0), int64(1<<60)
	if len(ref) > 0 {
		end = ref[len(ref)-1].LogicalEnd()
	}
	if got.End() != end {
		t.Fatalf("End() = %d, reference %d", got.End(), end)
	}
	for blk := end + 1; blk >= 0; blk-- {
		phys, contig, ok := int64(0), int64(0), false
		for _, e := range ref {
			if e.Logical <= blk && blk < e.LogicalEnd() {
				phys, contig, ok = e.Phys.Start+blk-e.Logical, e.LogicalEnd()-blk, true
				nextMapped = blk
			}
		}
		if p, c, o := got.Lookup(blk); p != phys || c != contig || o != ok {
			t.Fatalf("Lookup(%d) = %d, %d, %v; reference %d, %d, %v", blk, p, c, o, phys, contig, ok)
		}
		if nm := got.NextMapped(blk); nm != nextMapped {
			t.Fatalf("NextMapped(%d) = %d, reference %d", blk, nm, nextMapped)
		}
	}
}
