package harness

import (
	"fmt"
	"math"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// This file reproduces the micro-benchmark artifacts: Table 1 (append
// software overhead), Table 2 (PM device characteristics), Table 6
// (per-syscall latency), Figure 3 (technique breakdown), and Figure 4
// (IO-pattern comparison).

const microDev = 256 << 20

func init() {
	register("table1", "Software overhead of a 4 KB append (paper Table 1)", table1)
	register("table2", "PM device performance characteristics (paper Table 2)", table2)
	register("table6", "SplitFS system call latencies in µs (paper Table 6)", table6)
	register("fig3", "Contribution of each technique (paper Figure 3)", fig3)
	register("fig4", "Throughput on five IO patterns, by guarantee level (paper Figure 4)", fig4)
}

func table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Software overhead of appending a 4 KB block",
		Headers: []string{"File system", "Append (ns)", "Overhead (ns)", "Overhead (%)"},
	}
	kinds := []string{"ext4-dax", "pmfs", "nova-strict", "splitfs-strict", "splitfs-posix"}
	totals := make([]float64, len(kinds))
	for i, kind := range kinds {
		d, err := appendCell(kind)
		if err != nil {
			return nil, err
		}
		total, overhead := d.Total/appends, d.Overhead()/appends
		data := total - overhead
		totals[i] = float64(total)
		t.AddMetric("append/"+kind, float64(total), "ns")
		t.AddMetric("overhead/"+kind, float64(overhead), "ns")
		t.AddMetric("overhead_pct/"+kind, 100*float64(overhead)/float64(data), "%")
		t.AddMetric("raw_write/"+kind, float64(data), "ns")
		t.Rows = append(t.Rows, []string{kind, fmt.Sprint(total), fmt.Sprint(overhead), pct(float64(overhead) / float64(data))})
	}
	// The paper's order, each file system against the next.
	for i := 1; i < len(kinds); i++ {
		addRatio(t, "append", kinds[i-1], kinds[i], totals[i-1], totals[i])
	}
	addRatio(t, "append", kinds[0], kinds[4], totals[0], totals[4])
	return t, nil
}

// appends is Table 1's run: 8 MB of 4 KB appends (paper: 128 MB).
const appends = 2048

// appendCell measures Table 1's appends on a fresh stack of kind.
func appendCell(kind string) (sim.Breakdown, error) {
	e, err := paperStack(kind, microDev)
	if err != nil {
		return sim.Breakdown{}, err
	}
	f, err := vfs.Create(e.FS, "/append.dat")
	if err != nil {
		return sim.Breakdown{}, err
	}
	defer f.Close()
	blk := make([]byte, sim.BlockSize)
	// Warm one append so staging chunks and allocator hints exist.
	if _, err := f.Write(blk); err != nil {
		return sim.Breakdown{}, err
	}
	return measure(e.Clock, "append/"+kind, appends, func() error {
		for range appends {
			if _, err := f.Write(blk); err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
		}
		return nil
	})
}

func table2() (*Table, error) {
	// The one device built outside internal/stack: Table 2 measures the
	// bare device, with no file system on it.
	clk := sim.NewClock()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: clk})
	t := &Table{
		ID:      "table2",
		Title:   "PM device performance (device-level micro-ops)",
		Headers: []string{"Property", "Measured"},
	}
	buf, big := make([]byte, sim.CacheLine), make([]byte, 16<<20)
	ns := func(cell string, fn func()) float64 {
		d, _ := measure(clk, cell, 1, func() error { fn(); return nil })
		return float64(d.Total)
	}
	gbs := func(cell string, fn func()) float64 { return float64(len(big)) / ns(cell, fn) }
	row := func(name, metric, unit string, prec int, v float64) {
		t.AddMetric(metric, v, unit)
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.*f %s", prec, v, unit)})
	}
	// Sequential read latency: second of two adjacent single-line reads.
	dev.ReadAt(buf, 0, sim.CatPMData)
	row("Sequential read latency", "seq_read", "ns", 0, ns("seq_read", func() { dev.ReadAt(buf, sim.CacheLine, sim.CatPMData) }))
	row("Random read latency", "rand_read", "ns", 0, ns("rand_read", func() { dev.ReadAt(buf, 32<<20, sim.CatPMData) }))
	row("Store + flush + fence", "store_flush_fence", "ns", 0, ns("store_flush_fence", func() { dev.Persist(4096, buf, sim.CatPMData) }))
	row("Read bandwidth", "read_bw", "GB/s", 1, gbs("read_bw", func() { dev.ReadAt(big, 0, sim.CatPMData) }))
	row("Write bandwidth (single stream)", "write_bw", "GB/s", 1, gbs("write_bw", func() { dev.StoreNT(16<<20, big, sim.CatPMData); dev.Fence() }))
	return t, nil
}

// table6 runs the Varmail-like syscall sequence of §5.4 on each SplitFS
// mode and on ext4 DAX.
func table6() (*Table, error) {
	t := &Table{
		ID:      "table6",
		Title:   "System call latency (µs)",
		Headers: []string{"Syscall", "Strict", "Sync", "POSIX", "ext4 DAX"},
	}
	type col = map[string]int64
	kinds := []string{"splitfs-strict", "splitfs-sync", "splitfs-posix", "ext4-dax"}
	cols := make([]col, 0, len(kinds))
	for _, kind := range kinds {
		e, err := paperStack(kind, microDev)
		if err != nil {
			return nil, err
		}
		c := col{}
		var seqErr error
		meas := func(name string, fn func() error) {
			d, err := measure(e.Clock, name+"/"+kind, 1, fn)
			if err != nil && seqErr == nil {
				seqErr = fmt.Errorf("%s %s: %w", kind, name, err)
			}
			c[name] += d.Total
		}
		// §5.4: create, 4 appends of 4 KB each + fsync, close; open, read
		// 16 KB, close; open+close; unlink. The create is measured apart
		// from the reopens: Table 6's open reflects warm opens ("opening
		// a file that we recently closed" is the cheap case, §5.4).
		var f vfs.File
		meas("create", func() error { f, err = vfs.Create(e.FS, "/mail"); return err })
		if seqErr != nil {
			return nil, seqErr
		}
		blk := make([]byte, 4096)
		for i := 0; i < 4; i++ {
			meas("append", func() error { _, err := f.Write(blk); return err })
			meas("fsync", func() error { return f.Sync() })
		}
		meas("close", func() error { return f.Close() })
		meas("open", func() error { f, err = e.FS.OpenFile("/mail", vfs.O_RDWR, 0); return err })
		buf := make([]byte, 16384)
		meas("read", func() error { _, err := f.ReadAt(buf, 0); return err })
		meas("close", func() error { return f.Close() })
		meas("open", func() error { f, err = e.FS.OpenFile("/mail", vfs.O_RDWR, 0); return err })
		meas("close", func() error { return f.Close() })
		meas("unlink", func() error { return e.FS.Unlink("/mail") })
		if seqErr != nil {
			return nil, seqErr
		}
		// Averages over repeats.
		c["open"] /= 2
		c["close"] /= 3
		c["append"] /= 4
		c["fsync"] /= 4
		cols = append(cols, c)
	}
	for _, sys := range []string{"open", "close", "append", "fsync", "read", "unlink"} {
		row := []string{sys}
		for i, c := range cols {
			row = append(row, us(c[sys]))
			t.AddMetric(sys+"/"+kinds[i], float64(c[sys])/1e3, "us")
		}
		t.Rows = append(t.Rows, row)
	}
	// The paper's orderings between columns.
	for _, r := range []struct {
		sys  string
		a, b int
	}{{"append", 3, 2}, {"fsync", 3, 0}, {"unlink", 0, 3}, {"open", 0, 2}, {"open", 2, 3}} {
		addRatio(t, r.sys, kinds[r.a], kinds[r.b], float64(cols[r.a][r.sys]), float64(cols[r.b][r.sys]))
	}
	return t, nil
}

// fig3 shows how each technique contributes: ext4 DAX baseline, the split
// architecture alone, + staging, + relink, on sequential 4 KB overwrites
// and appends with an fsync every 10 operations.
func fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "Technique breakdown: throughput relative to ext4 DAX",
		Headers: []string{"Configuration", "Seq 4K overwrites (Kops/s)", "rel", "4K appends (Kops/s)", "rel"},
	}
	const nOps = 2048
	var base [2]float64
	var appends [4]float64
	for i, c := range []struct {
		name, id, kind string
		tweak          func(*splitfs.Config)
	}{
		{"ext4 DAX", "ext4-dax", "ext4-dax", nil},
		{"+ split architecture", "split-arch", "splitfs-posix", func(c *splitfs.Config) { c.DisableStaging = true }},
		{"+ staging (no relink)", "staging", "splitfs-posix", func(c *splitfs.Config) { c.DisableRelink = true }},
		{"+ relink (full SplitFS)", "relink", "splitfs-posix", nil},
	} {
		spec := paperSpec
		spec.DevBytes = microDev
		spec.USplit = splitfs.Config{StagingFiles: 8, StagingFileBytes: 8 << 20}
		if c.tweak != nil {
			c.tweak(&spec.USplit)
		}
		e, err := stack.New(c.kind, spec)
		if err != nil {
			return nil, err
		}
		blk := make([]byte, sim.BlockSize)
		// timed runs nOps writes with an fsync every 10 on a fresh file of
		// pre blocks, synced, and returns their Kops/s.
		timed := func(path string, pre int, write func(f vfs.File, i int)) (float64, error) {
			f, err := vfs.Create(e.FS, path)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			for i := 0; i < pre; i++ {
				f.Write(blk)
			}
			if pre > 0 {
				f.Sync()
			}
			before := e.Clock.Now()
			for i := 0; i < nOps; i++ {
				write(f, i)
				if i%10 == 9 {
					f.Sync()
				}
			}
			return kops(nOps, e.Clock.Now()-before), nil
		}
		var thr [2]float64
		if thr[0], err = timed("/ow", 64, func(f vfs.File, i int) { f.WriteAt(blk, int64(i%64)*sim.BlockSize) }); err != nil {
			return nil, err
		}
		if thr[1], err = timed("/ap", 0, func(f vfs.File, i int) { f.Write(blk) }); err != nil {
			return nil, err
		}
		if i == 0 {
			base = thr
		}
		appends[i] = thr[1]
		t.AddMetric("overwrite/"+c.id, thr[0], "Kops/s")
		t.AddMetric("overwrite_rel/"+c.id, thr[0]/base[0], "x")
		t.AddMetric("append/"+c.id, thr[1], "Kops/s")
		t.AddMetric("append_rel/"+c.id, thr[1]/base[1], "x")
		t.Rows = append(t.Rows, []string{c.name, f1(thr[0]), xf(thr[0] / base[0]), f1(thr[1]), xf(thr[1] / base[1])})
	}
	// What each technique adds on appends.
	addRatio(t, "append", "staging", "split-arch", appends[2], appends[1])
	addRatio(t, "append", "relink", "staging", appends[3], appends[2])
	addRatio(t, "append", "relink", "split-arch", appends[3], appends[1])
	return t, nil
}

// fig4 compares all file systems on the five IO patterns, grouped by
// guarantee level as in the paper.
func fig4() (*Table, error) {
	t := &Table{
		ID:      "fig4",
		Title:   "Throughput (Kops/s) on 4 KB IO patterns over a 16 MB file",
		Headers: []string{"Group", "File system", "seq read", "rand read", "seq write", "rand write", "append"},
	}
	const fileBlocks = 4096 // 16 MB
	const nOps = 2048
	patternIDs := []string{"seq_read", "rand_read", "seq_write", "rand_write", "append"}
	kops4 := map[string][]float64{}
	for _, g := range levels() {
		for _, kind := range g.kinds {
			e, err := paperStack(kind, 512<<20)
			if err != nil {
				return nil, err
			}
			f, err := vfs.Create(e.FS, "/data")
			if err != nil {
				return nil, err
			}
			blk := make([]byte, sim.BlockSize)
			for i := 0; i < fileBlocks; i++ {
				if _, err := f.Write(blk); err != nil {
					return nil, fmt.Errorf("%s fill: %w", kind, err)
				}
			}
			if err := f.Sync(); err != nil {
				return nil, err
			}
			rng := sim.NewRNG(3)
			var ap vfs.File // the append pattern's own file
			patterns := []func(i int) error{
				func(i int) error { _, err := f.ReadAt(blk, int64(i%fileBlocks)*sim.BlockSize); return err },
				func(i int) error { _, err := f.ReadAt(blk, rng.Int63n(fileBlocks)*sim.BlockSize); return err },
				func(i int) error { _, err := f.WriteAt(blk, int64(i%fileBlocks)*sim.BlockSize); return err },
				func(i int) error { _, err := f.WriteAt(blk, rng.Int63n(fileBlocks)*sim.BlockSize); return err },
				func(i int) error { _, err := ap.Write(blk); return err },
			}
			for pi, p := range patterns {
				if pi == 4 {
					if ap, err = vfs.Create(e.FS, "/appends"); err != nil {
						return nil, err
					}
				}
				before := e.Clock.Now()
				for i := 0; i < nOps; i++ {
					if err := p(i); err != nil {
						return nil, fmt.Errorf("%s %s: %w", kind, patternIDs[pi], err)
					}
				}
				// Strict-mode writes are synchronous and atomic per
				// operation (via the op log); the deferred relink runs at
				// close, outside the pattern, exactly as NOVA's per-op
				// logging is measured. Appends are timed to their fsync.
				if pi == 4 {
					ap.Sync()
				}
				kops4[kind] = append(kops4[kind], kops(nOps, e.Clock.Now()-before))
				if pi == 2 || pi == 3 {
					f.Sync() // settle staged state between patterns
				}
			}
			ap.Close()
			f.Close()
			row := []string{g.name, kind}
			for i, v := range kops4[kind] {
				row = append(row, f1(v))
				t.AddMetric(patternIDs[i]+"/"+kind, v, "Kops/s")
			}
			t.Rows = append(t.Rows, row)
		}
	}
	// Each SplitFS mode against the baseline of its guarantee.
	minGain := math.Inf(1)
	for _, g := range levels() {
		sp, base := g.kinds[len(g.kinds)-1], g.kinds[0]
		for i, p := range patternIDs {
			addRatio(t, p, sp, base, kops4[sp][i], kops4[base][i])
			minGain = min(minGain, kops4[sp][i]/kops4[base][i])
		}
	}
	t.AddMetric("min/splitfs_vs_baseline", minGain, "x")
	addRatio(t, "append", "nova-strict", "strata", kops4["nova-strict"][4], kops4["strata"][4])
	return t, nil
}
