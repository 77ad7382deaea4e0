package pmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"splitfs/internal/sim"
)

// These tests exercise the sharded device from many goroutines; run them
// under the race detector (go test -race ./internal/pmem) to validate the
// per-shard locking discipline.

func TestConcurrentDisjointWriters(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 8 << 20, Clock: clk, TrackPersistence: true, TrackWear: true})
	const goroutines = 8
	const region = 1 << 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * region
			blk := bytes.Repeat([]byte{byte(g + 1)}, sim.BlockSize)
			for i := 0; i < region/sim.BlockSize; i++ {
				off := base + int64(i)*sim.BlockSize
				if i%2 == 0 {
					d.StoreNT(off, blk, sim.CatPMData)
				} else {
					d.Store(off, blk, sim.CatPMData)
					d.Flush(off, len(blk), sim.CatPMData)
				}
			}
			d.Fence()
		}(g)
	}
	wg.Wait()
	d.Fence()
	// Every region holds its writer's byte pattern, durably.
	if err := d.Crash(nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sim.BlockSize)
	for g := 0; g < goroutines; g++ {
		for _, i := range []int{0, 1, region/sim.BlockSize - 1} {
			off := int64(g)*region + int64(i)*sim.BlockSize
			d.ReadAt(buf, off, sim.CatPMData)
			want := bytes.Repeat([]byte{byte(g + 1)}, sim.BlockSize)
			if !bytes.Equal(buf, want) {
				t.Fatalf("region %d block %d corrupted after crash", g, i)
			}
		}
	}
	if d.MaxWear() == 0 {
		t.Fatal("wear tracking lost under concurrency")
	}
}

func TestConcurrentReadersAndWritersDisjoint(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 4 << 20, Clock: clk})
	// Writers own the first half, readers the second.
	init := bytes.Repeat([]byte{0xAB}, 2<<20)
	d.StoreNT(2<<20, init, sim.CatPMData)
	d.Fence()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blk := make([]byte, 4096)
			for i := 0; i < 64; i++ {
				d.StoreNT(int64(g)*(512<<10)+int64(i)*4096, blk, sim.CatPMData)
				d.Fence()
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < 64; i++ {
				off := 2<<20 + int64(g)*(512<<10) + int64(i)*4096
				d.ReadIntoUser(buf, off, sim.CatPMData)
				if buf[0] != 0xAB {
					t.Errorf("reader %d: got %#x at %d", g, buf[0], off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSameShard drives all goroutines into one shard; the shard
// lock must serialize them without losing line state.
func TestConcurrentSameShard(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 1 << 20, Clock: clk, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			line := make([]byte, sim.CacheLine)
			for i := range line {
				line[i] = byte(g)
			}
			// All goroutines write distinct lines of the same 4 KB block.
			d.Store(int64(g)*sim.CacheLine, line, sim.CatPMData)
			d.Flush(int64(g)*sim.CacheLine, sim.CacheLine, sim.CatPMData)
		}(g)
	}
	wg.Wait()
	if got := d.UnpersistedLines(); got != 8 {
		t.Fatalf("UnpersistedLines() = %d, want 8", got)
	}
	d.Fence()
	if got := d.UnpersistedLines(); got != 0 {
		t.Fatalf("after fence UnpersistedLines() = %d, want 0", got)
	}
}

// TestShardBoundarySpan checks writes and reads that straddle shard
// boundaries are applied whole.
func TestShardBoundarySpan(t *testing.T) {
	clk := sim.NewClock()
	d := New(Config{Size: 1 << 20, Clock: clk, Shards: 16})
	span := (int64(1<<20) / 16)
	p := bytes.Repeat([]byte{0x5C}, int(2*sim.CacheLine))
	off := span - sim.CacheLine // straddles shard 0 / shard 1
	d.StoreNT(off, p, sim.CatPMData)
	d.Fence()
	got := make([]byte, len(p))
	d.ReadAt(got, off, sim.CatPMData)
	if !bytes.Equal(got, p) {
		t.Fatal("cross-shard write torn")
	}
}

func TestShardsConfig(t *testing.T) {
	clk := sim.NewClock()
	for _, shards := range []int{1, 3, 64, 1024} {
		d := New(Config{Size: 256 << 10, Clock: clk, Shards: shards})
		if d.Shards() < 1 {
			t.Fatalf("Shards()=%d for config %d", d.Shards(), shards)
		}
		// Whole-device write then read back.
		p := bytes.Repeat([]byte{7}, 256<<10)
		d.StoreNT(0, p, sim.CatPMData)
		got := make([]byte, len(p))
		d.ReadAt(got, 0, sim.CatPMData)
		if !bytes.Equal(got, p) {
			t.Fatalf("shards=%d: readback mismatch", shards)
		}
	}
}

// BenchmarkParallelStoreNT measures wall-clock append-style store
// throughput scaling across goroutines on disjoint regions — the device
// half of the ISSUE's >=2x-at-4-threads acceptance criterion. Each worker
// cycles over its own pre-touched 8 MB region, so only lock behaviour (not
// page-fault noise) varies with the thread count. Meaningful scaling
// needs GOMAXPROCS >= threads; on a single-CPU host the numbers only show
// that the sharded locks add no overhead.
func BenchmarkParallelStoreNT(b *testing.B) {
	const regionBytes = 8 << 20
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			clk := sim.NewClock()
			d := New(Config{Size: int64(threads) * regionBytes, Clock: clk})
			// Pre-touch the whole device so lazy page allocation stays out
			// of the timed region.
			zero := make([]byte, 1<<20)
			for off := int64(0); off < d.Size(); off += int64(len(zero)) {
				d.StoreNT(off, zero, sim.CatPMData)
			}
			d.Fence()
			blk := make([]byte, sim.BlockSize)
			blocksPerRegion := int64(regionBytes / sim.BlockSize)
			b.SetBytes(int64(threads) * sim.BlockSize)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := int64(g) * regionBytes
					for i := 0; i < b.N; i++ {
						off := base + int64(i)%blocksPerRegion*sim.BlockSize
						d.StoreNT(off, blk, sim.CatPMData)
						if i%16 == 15 {
							d.Fence()
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestSourcesOfConcurrentWriters runs the foreground — the Device's own
// write methods — and a relink-source Writer at once over disjoint
// regions, every round of stores flushed and fenced. Each source's stats
// count exactly its own writer's bytes, flushed lines and fences, and
// every traced event carries the source of the writer that issued it.
func TestSourcesOfConcurrentWriters(t *testing.T) {
	d := New(Config{Size: 4 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	d.SetTracing(true)
	type writes struct {
		src                         EventSource
		store, storeNT, storeBuffer func(off int64, p []byte, cat sim.Category)
		flush                       func(off int64, n int, cat sim.Category)
		fence                       func()
	}
	relink := d.As(SrcRelinkWorker)
	writers := []writes{
		{SrcForeground, d.Store, d.StoreNT, d.StoreBuffered, d.Flush, d.Fence},
		{SrcRelinkWorker, relink.Store, relink.StoreNT, relink.StoreBuffered, relink.Flush, relink.Fence},
	}
	const rounds, region = 512, 512 * sim.BlockSize
	line := bytes.Repeat([]byte{0xa5}, sim.CacheLine)
	var wg sync.WaitGroup
	for g, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range int64(rounds) {
				off := int64(g)*region + i*sim.BlockSize
				w.storeNT(off, line, sim.CatPMData)
				w.store(off+sim.CacheLine, line, sim.CatPMData)
				w.storeBuffer(off+2*sim.CacheLine, line, sim.CatPMMeta)
				w.flush(off+sim.CacheLine, sim.CacheLine, sim.CatPMData)
				w.fence()
			}
		}()
	}
	wg.Wait()
	for _, w := range writers {
		want := SourceStats{BytesWritten: 3 * sim.CacheLine * rounds, FlushedLines: rounds, Fences: rounds}
		if got := d.SourceStats(w.src); got != want {
			t.Errorf("source %v: stats %+v, want %+v", w.src, got, want)
		}
	}
	if got := d.SourceStats(SrcReclaim); got != (SourceStats{}) {
		t.Errorf("source %v, which nothing wrote under: stats %+v", SrcReclaim, got)
	}
	events := map[EventSource]int{}
	for _, ev := range d.Trace() {
		events[ev.Src]++
		if ev.Len > 0 && ev.Src != writers[ev.Off/region].src {
			t.Fatalf("event %d (%v) at %d, in %v's region, carries source %v", ev.Seq, ev.Kind, ev.Off, writers[ev.Off/region].src, ev.Src)
		}
	}
	for _, w := range writers {
		if events[w.src] != 4*rounds { // a store, a non-temporal store, a flush and a fence a round
			t.Errorf("source %v: %d traced events, want %d", w.src, events[w.src], 4*rounds)
		}
	}
}
