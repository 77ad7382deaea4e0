package pmem

// Wall-domain layer benchmarks (ROADMAP item 1): what one device call costs
// the host. Devices are tracked (TrackPersistence + TrackWear), as
// append-fsync and every crash campaign use them; set-up and the fences
// that only reset state run with the timer stopped.
//
//	go test -run '^$' -bench . -benchmem ./internal/pmem

import (
	"fmt"
	"testing"
	"time"

	"splitfs/internal/sim"
)

const (
	benchDev    = 64 << 20
	benchWindow = 1024 // blocks the store benchmarks cycle over between fences
)

var benchSink *Device

func benchBlock() []byte {
	p := make([]byte, sim.BlockSize)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// benchWindows times op over windows of benchWindow blocks, fencing
// between them untimed. Two untimed windows come first: one backs the
// frames and grows the pending lists, the next takes the undo pages that
// the lines of a backed frame save into, so what is timed is the steady
// state the splitperf probes time.
func benchWindows(b *testing.B, d *Device, op func(off int64)) {
	for i := 0; i < 2*benchWindow; i++ {
		if i%benchWindow == 0 {
			d.Fence()
		}
		op(int64(i%benchWindow) * sim.BlockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchWindow == 0 {
			b.StopTimer()
			d.Fence()
			b.StartTimer()
		}
		op(int64(i%benchWindow) * sim.BlockSize)
	}
}

// BenchmarkStoreNT4K: a 4 KB non-temporal store to clean lines of a
// backed frame (64 lines saved, 64 transitions into pending).
func BenchmarkStoreNT4K(b *testing.B) {
	d := newDev(b, benchDev)
	block := benchBlock()
	b.SetBytes(sim.BlockSize)
	benchWindows(b, d, func(off int64) { d.StoreNT(off, block, sim.CatPMData) })
}

// BenchmarkStoreFlush64B: the temporal store + clwb of one metadata line.
func BenchmarkStoreFlush64B(b *testing.B) {
	d := newDev(b, benchDev)
	line := benchBlock()[:sim.CacheLine]
	benchWindows(b, d, func(off int64) {
		d.Store(off, line, sim.CatPMMeta)
		d.Flush(off, sim.CacheLine, sim.CatPMMeta)
	})
}

// BenchmarkFence: a fence that drains one 4 KB block's pending lines,
// alone in its shard or beside 4096 buffered lines the fence must not have
// to walk past. ns/op covers the store and the fence; fence-ns/op is the
// fence by itself.
func BenchmarkFence(b *testing.B) {
	for _, buffered := range []int{0, 4096} {
		b.Run(fmt.Sprintf("buffered=%d", buffered), func(b *testing.B) {
			d := newDev(b, benchDev)
			block := benchBlock()
			// Same shard as block 0: a shard of the 64 MB device is 1 MB.
			for i := 0; i < buffered; i++ {
				d.StoreBuffered(sim.BlockSize+int64(i)*sim.CacheLine, block[:sim.CacheLine], sim.CatPMMeta)
			}
			var fence time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.StoreNT(0, block, sim.CatPMData)
				t0 := time.Now()
				d.Fence()
				fence += time.Since(t0)
			}
			b.ReportMetric(float64(fence.Nanoseconds())/float64(b.N), "fence-ns/op")
		})
	}
}

func BenchmarkRead4K(b *testing.B) {
	d := newDev(b, benchDev)
	block := benchBlock()
	for i := 0; i < benchWindow; i++ {
		d.StoreNT(int64(i)*sim.BlockSize, block, sim.CatPMData)
	}
	d.Fence()
	b.ReportAllocs()
	b.SetBytes(sim.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadAt(block, int64(i%benchWindow)*sim.BlockSize, sim.CatPMData)
	}
}

// BenchmarkNew: constructing a 256 MB tracked device.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = newDev(b, 256<<20)
	}
}

// BenchmarkCrash: a torn crash with 1 MB (16384 lines) unfenced.
func BenchmarkCrash(b *testing.B) {
	d := newDev(b, benchDev)
	block := benchBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			d.StoreNT(int64(j)*sim.BlockSize, block, sim.CatPMData)
		}
		b.StartTimer()
		if err := d.Crash(sim.NewRNG(uint64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// Once a shard is backed and its pending list has grown to the working
// set, the store/flush/fence cycle allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	d := newDev(t, 1<<20)
	block := benchBlock()
	cycle := func() {
		d.StoreNT(0, block, sim.CatPMData)
		d.Store(8192, block[:100], sim.CatPMMeta)
		d.Flush(8192, 100, sim.CatPMMeta)
		d.StoreBuffered(12288, block[:sim.CacheLine], sim.CatPMMeta)
		d.Fence()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state Store/StoreNT/Flush/Fence cycle: %v allocs/op, want 0", n)
	}
}
