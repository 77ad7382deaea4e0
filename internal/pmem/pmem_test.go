package pmem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"splitfs/internal/sim"
)

func newDev(t testing.TB, size int64) *Device {
	t.Helper()
	return New(Config{Size: size, Clock: sim.NewClock(), TrackPersistence: true, TrackWear: true})
}

func TestStoreNTReadBack(t *testing.T) {
	d := newDev(t, 1<<20)
	want := []byte("persistent memory")
	d.StoreNT(4096, want, sim.CatPMData)
	got := make([]byte, len(want))
	d.ReadAt(got, 4096, sim.CatPMData)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestNTStoreNotDurableUntilFence(t *testing.T) {
	d := newDev(t, 1<<20)
	d.StoreNT(0, []byte("hello"), sim.CatPMData)
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	d.ReadAt(got, 0, sim.CatPMData)
	if !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("unfenced NT store survived crash: %q", got)
	}
}

func TestNTStoreDurableAfterFence(t *testing.T) {
	d := newDev(t, 1<<20)
	d.StoreNT(0, []byte("hello"), sim.CatPMData)
	d.Fence()
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	d.ReadAt(got, 0, sim.CatPMData)
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("fenced NT store lost in crash: %q", got)
	}
}

func TestCachedStoreNeedsFlushAndFence(t *testing.T) {
	d := newDev(t, 1<<20)
	d.Store(128, []byte("cached"), sim.CatPMMeta)
	d.Fence() // fence without flush must NOT persist a cached store
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	d.ReadAt(got, 128, sim.CatPMMeta)
	if !bytes.Equal(got, make([]byte, 6)) {
		t.Fatalf("cached store persisted by fence alone: %q", got)
	}

	d.Store(128, []byte("cached"), sim.CatPMMeta)
	d.Flush(128, 6, sim.CatPMMeta)
	d.Fence()
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	d.ReadAt(got, 128, sim.CatPMMeta)
	if !bytes.Equal(got, []byte("cached")) {
		t.Fatalf("store+flush+fence lost in crash: %q", got)
	}
}

func TestPersistHelpers(t *testing.T) {
	d := newDev(t, 1<<20)
	d.PersistNT(0, []byte("nt"), sim.CatPMData)
	d.Persist(64, []byte("tmp"), sim.CatPMMeta)
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	d.ReadAt(got, 0, sim.CatPMData)
	if string(got) != "nt" {
		t.Fatalf("PersistNT lost: %q", got)
	}
	got3 := make([]byte, 3)
	d.ReadAt(got3, 64, sim.CatPMMeta)
	if string(got3) != "tmp" {
		t.Fatalf("Persist lost: %q", got3)
	}
}

func TestCrashTornLines(t *testing.T) {
	d := newDev(t, 1<<20)
	line := bytes.Repeat([]byte{0xAB}, sim.CacheLine)
	d.StoreNT(0, line, sim.CatOpLog) // unfenced
	rng := sim.NewRNG(99)
	if err := d.Crash(rng); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sim.CacheLine)
	d.ReadAt(got, 0, sim.CatOpLog)
	// With 8 independent 50% words, all-zero and all-AB are both ~0.4%
	// likely; the seed above produces a genuinely torn line.
	if bytes.Equal(got, line) || bytes.Equal(got, make([]byte, sim.CacheLine)) {
		t.Fatalf("expected torn line, got uniform %x", got[:8])
	}
}

func TestCrashWithoutTracking(t *testing.T) {
	d := New(Config{Size: 4096, Clock: sim.NewClock()})
	if err := d.Crash(nil); err != ErrNoPersistence {
		t.Fatalf("Crash() = %v, want ErrNoPersistence", err)
	}
}

func TestReadLatencySeqVsRand(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 1 << 20, Clock: clk})
	buf := make([]byte, 4096)
	d.ReadAt(buf, 0, sim.CatPMData) // first read: random
	before := clk.Now()
	d.ReadAt(buf, 4096, sim.CatPMData) // sequential continuation
	seq := clk.Now() - before
	before = clk.Now()
	d.ReadAt(buf, 512*1024, sim.CatPMData) // jump: random
	rnd := clk.Now() - before
	if rnd-seq != sim.PMReadRand.Fixed-sim.PMReadSeq.Fixed {
		t.Fatalf("rand-seq latency delta = %d, want %d", rnd-seq,
			sim.PMReadRand.Fixed-sim.PMReadSeq.Fixed)
	}
}

func TestTable2Anchor4KWrite(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 1 << 20, Clock: clk})
	d.StoreNT(0, make([]byte, 4096), sim.CatPMData)
	d.Fence()
	if got := clk.Now(); got < 640 || got > 700 {
		t.Fatalf("4KB NT write+fence = %dns, want ~671ns (paper §1)", got)
	}
}

func TestStatsAndWear(t *testing.T) {
	d := newDev(t, 1<<20)
	d.StoreNT(0, make([]byte, 4096), sim.CatPMData)
	d.Store(8192, make([]byte, 64), sim.CatPMMeta)
	d.Flush(8192, 64, sim.CatPMMeta)
	d.Fence()
	st := d.Stats()
	if st.BytesWrittenNT != 4096 || st.BytesWrittenCached != 64 {
		t.Fatalf("write stats = %+v", st)
	}
	if st.BytesWritten() != 4160 {
		t.Fatalf("BytesWritten() = %d", st.BytesWritten())
	}
	if st.Fences != 1 || st.Flushes != 1 {
		t.Fatalf("fences/flushes = %d/%d", st.Fences, st.Flushes)
	}
	if d.Wear(0) == 0 {
		t.Fatal("block 0 wear not recorded")
	}
	if d.MaxWear() == 0 {
		t.Fatal("MaxWear() = 0")
	}
}

// A zero-length store writes nothing: it used to bump wear[0] whenever
// off < 4096 ((off+0-1)/BlockSize truncates to 0) and to mark the line
// under an unaligned off.
func TestZeroLengthStoreTouchesNothing(t *testing.T) {
	d := newDev(t, 1<<20)
	d.StoreNT(100, nil, sim.CatPMData)
	d.Store(0, nil, sim.CatPMMeta)
	if w := d.Wear(0); w != 0 {
		t.Fatalf("Wear(0) = %d after zero-length stores, want 0", w)
	}
	if n := d.UnpersistedLines(); n != 0 {
		t.Fatalf("UnpersistedLines() = %d after zero-length stores, want 0", n)
	}
}

// Size is the configured capacity rounded up to a cache line, whether or
// not anything was ever stored, and a shard no store reached reads zeros.
func TestSizeAndNeverWrittenShard(t *testing.T) {
	d := New(Config{Size: 1<<20 + 1, Clock: sim.NewClock(), TrackPersistence: true})
	if got, want := d.Size(), int64(1<<20+sim.CacheLine); got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
	d.StoreNT(0, []byte("x"), sim.CatPMData)
	got := bytes.Repeat([]byte{0xff}, 4096)
	d.ReadAt(got, d.Size()-4096, sim.CatPMData)
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("never-written shard did not read as zeros")
	}
}

func TestUnpersistedLines(t *testing.T) {
	d := newDev(t, 1<<20)
	d.StoreNT(0, make([]byte, 128), sim.CatPMData) // 2 lines
	if got := d.UnpersistedLines(); got != 2 {
		t.Fatalf("UnpersistedLines() = %d, want 2", got)
	}
	d.Fence()
	if got := d.UnpersistedLines(); got != 0 {
		t.Fatalf("after fence UnpersistedLines() = %d, want 0", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.StoreNT(4000, make([]byte, 200), sim.CatPMData)
}

func TestConcurrentDisjointWrites(t *testing.T) {
	d := newDev(t, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := []byte{byte(g + 1)}
			for i := 0; i < 100; i++ {
				off := int64(g*4096 + i)
				d.StoreNT(off, b, sim.CatPMData)
			}
		}(g)
	}
	wg.Wait()
	d.Fence()
	for g := 0; g < 8; g++ {
		got := make([]byte, 1)
		d.ReadAt(got, int64(g*4096+50), sim.CatPMData)
		if got[0] != byte(g+1) {
			t.Fatalf("goroutine %d data corrupted: %d", g, got[0])
		}
	}
}

// Property: any fenced NT write survives any crash, regardless of offset,
// length, and interleaving with unfenced writes elsewhere.
func TestPersistenceProperty(t *testing.T) {
	f := func(seed uint64, rawOff uint32, rawLen uint16) bool {
		d := newDev(t, 1<<20)
		off := int64(rawOff) % (1<<20 - 65536)
		n := int(rawLen)%4096 + 1
		rng := sim.NewRNG(seed)
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(rng.Uint64())
		}
		d.StoreNT(off, want, sim.CatPMData)
		d.Fence()
		// Unfenced noise elsewhere (different cache lines).
		noiseOff := (off + int64(n) + sim.CacheLine*4) % (1<<20 - 256)
		d.StoreNT(noiseOff, []byte{1, 2, 3}, sim.CatPMData)
		if err := d.Crash(sim.NewRNG(seed ^ 0xdead)); err != nil {
			return false
		}
		got := make([]byte, n)
		d.ReadAt(got, off, sim.CatPMData)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
