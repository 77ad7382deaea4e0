package splitfs_test

// One testing.B benchmark per paper table and figure, each driving the
// experiment registry in internal/harness. The reported metric is
// simulated nanoseconds (the paper's metric), not wall-clock time; run
//
//	go test -bench=. -benchmem
//
// and read the rendered tables from cmd/splitbench for the full output.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"splitfs/internal/ext4dax"
	"splitfs/internal/harness"
	"splitfs/internal/journal"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run()
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			tbl.Render(io.Discard)
		}
	}
}

// BenchmarkTable1AppendOverhead regenerates Table 1: software overhead of
// 4 KB appends on all five file systems.
func BenchmarkTable1AppendOverhead(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2PMDevice regenerates Table 2: raw device characteristics.
func BenchmarkTable2PMDevice(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable6Syscalls regenerates Table 6: per-syscall latency across
// SplitFS modes and ext4 DAX.
func BenchmarkTable6Syscalls(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7Strata regenerates Table 7: YCSB on LevelDB, Strata vs
// SplitFS-strict.
func BenchmarkTable7Strata(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkFig3Techniques regenerates Figure 3: the contribution of the
// split architecture, staging, and relink.
func BenchmarkFig3Techniques(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4IOPatterns regenerates Figure 4: five IO patterns across
// all file systems by guarantee level.
func BenchmarkFig4IOPatterns(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5SoftwareOverhead regenerates Figure 5: relative software
// overhead in YCSB and TPCC.
func BenchmarkFig5SoftwareOverhead(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Applications regenerates Figure 6: application throughput
// and the metadata-heavy utilities.
func BenchmarkFig6Applications(b *testing.B) { runExperiment(b, "fig6") }

// Parallel benchmarks: N worker goroutines over one SplitFS-POSIX
// instance, distinct files each — the concurrency the sharded PM device
// and per-file lock hierarchy buy. Reported metrics are aggregate
// wall-clock Kops/s (meaningful when GOMAXPROCS >= the thread count) and
// simulated ns/op. Compare threads=4 against threads=1 for the scaling
// factor. Building the instance (device, mkfs, mount, pre-fill) happens
// with the timer stopped: ns/op, B/op and allocs/op are the workers' own,
// and setup-ns/op is the set-up's wall time beside them, so a cost that
// moves between the two shows.
func benchConcurrent(b *testing.B, prepare func() (*harness.ConcurrentWorkload, error)) {
	b.Helper()
	b.ReportAllocs()
	var setup time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		w, err := prepare()
		if err != nil {
			b.Fatal(err)
		}
		setup += time.Since(t0)
		b.StartTimer()
		r, err := w.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WallKops(), "wall-Kops/s")
		b.ReportMetric(float64(r.SimNs)/float64(r.Ops), "sim-ns/op")
	}
	b.ReportMetric(float64(setup.Nanoseconds())/float64(b.N), "setup-ns/op")
}

func BenchmarkParallelAppends(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchConcurrent(b, func() (*harness.ConcurrentWorkload, error) {
				return harness.ConcurrentAppends("splitfs-posix", threads, 2048/threads, 4096)
			})
		})
	}
}

func BenchmarkParallelReads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchConcurrent(b, func() (*harness.ConcurrentWorkload, error) {
				return harness.ConcurrentReads("splitfs-posix", threads, 4096/threads, 4096)
			})
		})
	}
}

func BenchmarkParallelWALCommits(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchConcurrent(b, func() (*harness.ConcurrentWorkload, error) {
				return harness.ConcurrentWAL("splitfs-posix", threads, 256/threads)
			})
		})
	}
}

// BenchmarkRecovery regenerates the §5.3 recovery-time measurement.
func BenchmarkRecovery(b *testing.B) { runExperiment(b, "recovery") }

// BenchmarkResources regenerates the §5.10 resource-consumption numbers.
func BenchmarkResources(b *testing.B) { runExperiment(b, "resources") }

// BenchmarkAblation regenerates the §3.6/§4 tunable-parameter ablations.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkRelinkFragmented is relink's host cost against the number of
// extents the target owns: one block relinked over a block of a file of n
// one-block extents, and the batch closed. Wall-clock ns/op and B/op are
// the metrics here (the simulated cost is TestFsyncCostFlatInFragmentation's);
// both should be flat in n — re-read with -memprofile when they are not.
func BenchmarkRelinkFragmented(b *testing.B) {
	for _, n := range []int64{64, 1024, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			st, err := stack.New("ext4-dax", stack.Spec{DevBytes: 128 << 20})
			if err != nil {
				b.Fatal(err)
			}
			kfs := st.Base.(*ext4dax.FS)
			dst, _ := vfs.Create(kfs, "/dst")
			blk := make([]byte, sim.BlockSize)
			for i := int64(0); i < n; i++ { // every other block: no two extents merge
				if _, err := dst.WriteAt(blk, 2*i*sim.BlockSize); err != nil {
					b.Fatal(err)
				}
			}
			const srcBlocks = 8192
			src, _ := vfs.Create(kfs, "/src")
			if err := src.(*ext4dax.File).Preallocate(srcBlocks, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := int64(0); i < int64(b.N); i++ {
				if i%srcBlocks == 0 && i > 0 { // the source is spent: a fresh one
					b.StopTimer()
					if err := src.Truncate(0); err != nil {
						b.Fatal(err)
					}
					if err := src.(*ext4dax.File).Preallocate(srcBlocks, 0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				moves := []ext4dax.Move{{Src: src.(*ext4dax.File),
					SrcOff: i % srcBlocks * sim.BlockSize, DstOff: 2 * (i * 7 % n) * sim.BlockSize, Len: sim.BlockSize}}
				batch, err := kfs.BeginRelink(pmem.SrcForeground, dst.(*ext4dax.File), moves)
				if err != nil {
					b.Fatal(err)
				}
				if err := batch.Relink(dst.(*ext4dax.File), 0, moves); err != nil {
					b.Fatal(err)
				}
				batch.End()
			}
		})
	}
}

// BenchmarkRelinkVector is a strict-mode fsync against the number of
// disjoint pieces it relinks: that many scattered block overwrites staged
// (untimed), then the fsync. The pieces travel to K-Split as one relink
// vector, so the simulated cost pays one trap and one journal handle
// whatever their number; wall-clock ns/op is the host's side of the same
// fsync. It drives the public surface only, so the parent commit runs it
// unchanged.
func BenchmarkRelinkVector(b *testing.B) {
	for _, pieces := range []int{8, 64} {
		b.Run(fmt.Sprint(pieces), func(b *testing.B) {
			spec := stack.Small
			spec.DevBytes = 256 << 20
			spec.USplit.StagingFileBytes = 32 << 20
			st, err := stack.New("splitfs-strict", spec)
			if err != nil {
				b.Fatal(err)
			}
			f, err := vfs.Create(st.FS, "/scattered")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Write(make([]byte, 2*pieces*sim.BlockSize)); err != nil {
				b.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				b.Fatal(err)
			}
			blk := make([]byte, sim.BlockSize)
			var simNs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for p := 0; p < pieces; p++ { // every other block: no two pieces merge
					if _, err := f.WriteAt(blk, int64(2*p+1)*sim.BlockSize); err != nil {
						b.Fatal(err)
					}
				}
				t0 := st.Clock.Now()
				b.StartTimer()
				if err := f.Sync(); err != nil {
					b.Fatal(err)
				}
				simNs += st.Clock.Now() - t0
			}
			b.ReportMetric(float64(simNs)/float64(b.N), "sim-ns/op")
		})
	}
}

// BenchmarkJournalCommit is one journal commit's host cost against the
// number of 4 KB block images it logs — the bare journal on a bare device,
// as splitperf's journal.commit_8blk_host_ns probe builds it. MB/s counts
// the images: each is read back, checksummed and stored, so the figure is
// bounded by the checksum while that is a byte loop and by the device
// model's stores once it is not. B/op catches a block buffer that moved
// to the heap (TestCommitAllocatesNoBlocks is the gate).
func BenchmarkJournalCommit(b *testing.B) {
	for _, images := range []int64{1, 8, 64} {
		b.Run(fmt.Sprint(images), func(b *testing.B) {
			dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true, TrackWear: true})
			jnl := journal.New(dev, 0, 256)
			const home = 8 << 20
			line := make([]byte, sim.CacheLine)
			b.SetBytes(images * sim.BlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := jnl.Begin()
				for blk := int64(0); blk < images; blk++ {
					dev.Store(home+blk*sim.BlockSize, line, sim.CatPMMeta)
					tx.Note(home+blk*sim.BlockSize, sim.CacheLine)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
