package obs

import (
	"encoding/json"
	"testing"
)

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Func("z/ops", func() int64 { return 1 })
	r.Func("z/ops", func() int64 { return 3 }) // replaces, no second row
	r.Func("a/level", func() int64 { return 7 })
	r.Func("m/fn", func() int64 { return 42 })

	s := r.Snapshot()
	names := make([]string, len(s))
	for i, m := range s {
		names[i] = m.Name
	}
	want := []string{"a/level", "m/fn", "z/ops"}
	if len(names) != len(want) {
		t.Fatalf("snapshot rows %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", names, want)
		}
	}
	if m, _ := s.Get("z/ops"); m.Value != 3 || m.Kind != KindGauge {
		t.Fatalf("re-registered gauge = %+v, want value 3", m)
	}
	if m, _ := s.Get("m/fn"); m.Value != 42 {
		t.Fatalf("func gauge = %d, want 42", m.Value)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get found a missing metric")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1) // bit 1
	h.Observe(7) // bit 3
	h.Observe(1 << 50)
	bs := HistBucketsOf(&h)
	byBit := map[int]int64{}
	for _, b := range bs {
		byBit[b.Bit] = b.N
	}
	if byBit[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (zero + negative)", byBit[0])
	}
	if byBit[1] != 1 || byBit[3] != 1 {
		t.Fatalf("buckets = %v", byBit)
	}
	if byBit[HistBuckets-1] != 1 {
		t.Fatalf("huge observation not clamped into last bucket: %v", byBit)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 8+1<<50 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(3)
	b.Observe(3)
	b.Observe(100)
	a.Merge(&b)
	if a.Count() != 3 || a.Sum() != 106 {
		t.Fatalf("merged count=%d sum=%d", a.Count(), a.Sum())
	}
}

// TestSnapshotDeterministic is the core contract: two registries fed
// the same readings produce byte-identical snapshots and equal hashes.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Register in different orders on purpose: sorting must make
		// registration order invisible.
		names := []string{"b", "a", "c/x", "c/y"}
		for _, n := range names {
			v := int64(len(n))
			r.Func(n, func() int64 { return v })
		}
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	if s1.Hash() != s2.Hash() {
		t.Fatalf("hashes differ: %x vs %x", s1.Hash(), s2.Hash())
	}
	// And a different reading hashes differently.
	r := NewRegistry()
	r.Func("b", func() int64 { return 999 })
	if r.Snapshot().Hash() == s1.Hash() {
		t.Fatal("distinct snapshots hash equal")
	}
}
