package pmem

import (
	"bytes"
	"slices"
	"testing"

	"splitfs/internal/sim"
)

func newEvDev(t *testing.T) *Device {
	t.Helper()
	return New(Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
}

// volatile returns the first n bytes of the volatile view, charging
// nothing and counting nothing.
func volatile(d *Device, n int64) []byte {
	p := make([]byte, n)
	d.load(p, 0)
	return p
}

func TestEventCountingByKind(t *testing.T) {
	d := newEvDev(t)
	base := d.Events()
	d.SetTracing(true)
	d.Store(0, []byte("abc"), sim.CatPMMeta)
	d.StoreNT(4096, []byte("def"), sim.CatPMData)
	d.Flush(0, 3, sim.CatPMMeta)
	d.Fence()
	var kinds []EventKind
	for _, ev := range d.Trace() {
		kinds = append(kinds, ev.Kind)
	}
	if want := []EventKind{EvStore, EvStoreNT, EvFlush, EvFence}; !slices.Equal(kinds, want) {
		t.Fatalf("traced kinds %v, want %v", kinds, want)
	}
	if got := d.Events() - base; got != 4 {
		t.Fatalf("expected 4 events, got %d", got)
	}
}

func TestTraceRecordsRangeAndCategory(t *testing.T) {
	d := newEvDev(t)
	d.SetTracing(true)
	d.StoreNT(128, []byte("xyzw"), sim.CatOpLog)
	d.Fence()
	tr := d.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0].Kind != EvStoreNT || tr[0].Off != 128 || tr[0].Len != 4 || tr[0].Cat != sim.CatOpLog {
		t.Fatalf("bad store event %+v", tr[0])
	}
	if tr[1].Kind != EvFence || tr[1].Seq != tr[0].Seq+1 {
		t.Fatalf("bad fence event %+v", tr[1])
	}
	d.SetTracing(false)
	d.Fence()
	if len(d.Trace()) != 0 {
		t.Fatal("trace not cleared")
	}
}

// An armed crash at event k must produce exactly the durable image a run
// truncated at event k produces — record/replay's core property.
func TestArmCrashMatchesTruncatedRun(t *testing.T) {
	ops := func(d *Device, n int) {
		seq := [](func()){
			func() { d.StoreNT(0, []byte("first-line-of-data!"), sim.CatPMData) },
			func() { d.Fence() },
			func() { d.StoreNT(4096, bytes.Repeat([]byte{7}, 200), sim.CatPMData) },
			func() { d.Store(8192, []byte("cached"), sim.CatPMMeta) },
			func() { d.Flush(8192, 6, sim.CatPMMeta) },
			func() { d.Fence() },
			func() { d.StoreNT(300, []byte("tail-unfenced"), sim.CatPMData) },
		}
		for i := 0; i < n; i++ {
			seq[i]()
		}
	}
	for k := int64(1); k <= 7; k++ {
		// Truncated run: execute exactly the first k events, then crash.
		dt := newEvDev(t)
		ops(dt, int(k))
		if err := dt.Crash(sim.NewRNG(99)); err != nil {
			t.Fatal(err)
		}
		// Replay run: arm at k, execute everything, then crash.
		dr := newEvDev(t)
		dr.ArmCrash(k, sim.NewRNG(99))
		ops(dr, 7)
		if !dr.CrashFired() {
			t.Fatalf("k=%d: crash point not reached", k)
		}
		if err := dr.Crash(sim.NewRNG(12345)); err != nil { // rng must be ignored
			t.Fatal(err)
		}
		if !bytes.Equal(volatile(dt, 16384), volatile(dr, 16384)) {
			t.Fatalf("k=%d: replay image diverges from truncated run", k)
		}
	}
}

func TestArmCrashDeterministic(t *testing.T) {
	img := func() []byte {
		d := newEvDev(t)
		d.ArmCrash(3, sim.NewRNG(42))
		d.StoreNT(0, bytes.Repeat([]byte{1}, 500), sim.CatPMData)
		d.Store(4096, bytes.Repeat([]byte{2}, 500), sim.CatPMData)
		d.StoreNT(8192, bytes.Repeat([]byte{3}, 500), sim.CatPMData)
		d.Fence()
		if err := d.Crash(nil); err != nil {
			t.Fatal(err)
		}
		return volatile(d, 12288)
	}
	if !bytes.Equal(img(), img()) {
		t.Fatal("same seed, same events: images differ")
	}
}

// Buffered stores model jbd2 write-ahead metadata: visible to loads,
// never durable until flushed+fenced, wholly reverted on crash.
func TestStoreBufferedWriteAhead(t *testing.T) {
	d := newEvDev(t)
	payload := bytes.Repeat([]byte{0xAB}, 128)
	d.StoreBuffered(0, payload, sim.CatPMMeta)

	got := make([]byte, 128)
	d.Peek(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("buffered store not visible to loads")
	}
	// A fence alone must not persist it, and tearing must not leak it.
	d.Fence()
	if err := d.Crash(sim.NewRNG(7)); err != nil {
		t.Fatal(err)
	}
	d.Peek(got, 0)
	if !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("uncommitted buffered metadata leaked to the durable image")
	}

	// Flush + fence (the journal checkpoint) makes it durable.
	d.StoreBuffered(0, payload, sim.CatPMMeta)
	d.Flush(0, 128, sim.CatPMMeta)
	d.Fence()
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	d.Peek(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("checkpointed buffered metadata lost")
	}
}

func TestFenceFilterDropsPersistence(t *testing.T) {
	d := newEvDev(t)
	d.SetFenceFilter(func(seq int64) bool { return seq == 1 })
	d.StoreNT(0, []byte("gone"), sim.CatPMData)
	d.Fence() // dropped
	d.SetFenceFilter(nil)
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	d.Peek(got, 0)
	if bytes.Equal(got, []byte("gone")) {
		t.Fatal("dropped fence still persisted data")
	}

	d.StoreNT(0, []byte("kept"), sim.CatPMData)
	d.Fence()
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	d.Peek(got, 0)
	if !bytes.Equal(got, []byte("kept")) {
		t.Fatal("normal fence lost data after filter removed")
	}
}

// TestCrashPointsEnumeration: every event gets Revert and tears 1..tears;
// only a non-temporal store whose range nothing later touches gets Land —
// not one a later store rewrites, and never a store, flush or fence.
func TestCrashPointsEnumeration(t *testing.T) {
	trace := []Event{
		{Seq: 1, Kind: EvStoreNT, Off: 0, Len: 64},   // rewritten by event 3
		{Seq: 2, Kind: EvStoreNT, Off: 128, Len: 64}, // untouched after
		{Seq: 3, Kind: EvStore, Off: 32, Len: 64},
		{Seq: 4, Kind: EvFlush, Off: 32, Len: 64},
		{Seq: 5, Kind: EvFence},
	}
	for _, tears := range []int{0, 1, 2, 7} {
		var want []CrashPoint
		for _, ev := range trace {
			for w := range tears + 1 {
				want = append(want, CrashPoint{ev, Way(w)})
			}
			if ev.Seq == 2 {
				want = append(want, CrashPoint{ev, Land})
			}
		}
		if got := slices.Collect(CrashPoints(trace, tears)); !slices.Equal(got, want) {
			t.Errorf("tears %d: %v\nwant %v", tears, got, want)
		}
	}
	if got := Way(2).String() + " " + Revert.String() + " " + Land.String(); got != "tear2 revert land" {
		t.Errorf("way names: %s", got)
	}
}

// crashPointRun persists a line of 1s at 0, then, arm called first,
// stores unfenced lines of 2s at 0 and of 3s at 4096; it returns the
// device and its trace from arm on.
func crashPointRun(t *testing.T, arm func(*Device)) (*Device, []Event) {
	d := newEvDev(t)
	d.PersistNT(0, bytes.Repeat([]byte{1}, 64), sim.CatPMData)
	d.SetTracing(true)
	arm(d)
	d.StoreNT(0, bytes.Repeat([]byte{2}, 64), sim.CatPMData)
	d.StoreNT(4096, bytes.Repeat([]byte{3}, 64), sim.CatPMData)
	return d, d.Trace()
}

// TestCrashPointImages: a landed point's image holds its store's bytes,
// and every other unfenced line is reverted; a tear point's is byte for
// byte the one ArmCrash(seq, sim.NewRNG(seq<<8|i)) leaves, and a revert
// point's the one ArmCrash(seq, nil) leaves.
func TestCrashPointImages(t *testing.T) {
	_, trace := crashPointRun(t, func(*Device) {})
	image := func(d *Device) []byte {
		p := make([]byte, 8192)
		d.Peek(p, 0)
		return p
	}
	ones, torn := bytes.Repeat([]byte{1}, 64), 0
	for p := range CrashPoints(trace, 6) {
		d, _ := crashPointRun(t, p.Arm)
		p.Crash(d)
		want := make([]byte, 8192) // the landed store over a reverted image
		copy(want, ones)
		if p.Way == Land {
			copy(want[p.Ev.Off:], bytes.Repeat([]byte{byte(2 + p.Ev.Off/4096)}, 64))
		} else {
			var rng *sim.RNG
			if p.Way != Revert {
				rng = sim.NewRNG(uint64(p.Ev.Seq)<<8 | uint64(p.Way))
			}
			ref, _ := crashPointRun(t, func(d *Device) { d.ArmCrash(p.Ev.Seq, rng) })
			ref.Crash(nil)
			want = image(ref)
		}
		got := image(d)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: image % x… / % x…, want % x… / % x…", p, got[:2], got[4096:4098], want[:2], want[4096:4098])
		}
		if p.Way != Land && !bytes.Equal(got[:64], ones) {
			torn++
		}
	}
	if torn == 0 {
		t.Error("no tear point left a word of the unfenced store on media")
	}
}
