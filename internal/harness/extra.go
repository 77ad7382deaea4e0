package harness

import (
	"fmt"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// This file reproduces the remaining artifacts: §5.3 recovery times,
// §5.10 resource consumption, and the §3.6/§4 tunable-parameter
// ablations (mmap size, huge pages, staging in DRAM).

func init() {
	register("recovery", "Strict-mode crash recovery time vs log entries (paper §5.3)", recoveryExp)
	register("resources", "U-Split resource consumption (paper §5.10)", resourcesExp)
	register("ablation", "Tunable-parameter ablations (paper §3.6, §4)", ablationExp)
}

// recoveryPoints are the log sizes recoveryExp replays: three small ones,
// then the two §5.3 reports (the second, of cache-line writes, in a
// 128 MB log); the claims table holds the paper's replay times.
var recoveryPoints = []struct {
	entries  int
	logBytes int64
}{{100, 8 << 20}, {500, 8 << 20}, {2000, 8 << 20}, {18000, 8 << 20}, {2_000_000, 128 << 20}}

// recoveryExp crashes a strict-mode instance with growing numbers of
// valid log entries, each a 64-byte append, and measures replay time.
func recoveryExp() (*Table, error) {
	t := &Table{
		ID:      "recovery",
		Title:   "Op-log replay time after crash",
		Headers: []string{"Valid log entries", "Replayed", "Replay time (ms)", "Per entry (us)"},
	}
	for _, pt := range recoveryPoints {
		// The device holds the log, as many staged bytes and the file they
		// replay into.
		st, err := stack.New("splitfs-strict", stack.Spec{
			DevBytes: max(512<<20, 4*pt.logBytes), TrackPersistence: true,
			KSplit: ext4dax.Config{MaxInodes: 1024},
			USplit: splitfs.Config{StagingFiles: 8, StagingFileBytes: 8 << 20, OpLogBytes: pt.logBytes},
		})
		if err != nil {
			return nil, err
		}
		f, err := vfs.Create(st.FS, "/victim")
		if err != nil {
			return nil, err
		}
		line := make([]byte, sim.CacheLine)
		for i := 0; i < pt.entries; i++ {
			if _, err := f.Write(line); err != nil {
				return nil, err
			}
		}
		if err := st.Dev.Crash(sim.NewRNG(uint64(pt.entries))); err != nil {
			return nil, err
		}
		_, rec, err := st.Recover()
		if err != nil {
			return nil, err
		}
		report := rec.OpLog
		ms := float64(report.ReplayNs) / 1e6
		perEntryUs := float64(report.ReplayNs) / 1e3 / float64(report.Entries)
		name := fmt.Sprintf("entries_%d/", pt.entries)
		t.AddMetric(name+"replay_ms", ms, "ms")
		t.AddMetric(name+"per_entry_us", perEntryUs, "us")
		t.Rows = append(t.Rows, []string{fmt.Sprint(report.Entries), fmt.Sprint(report.Replayed), f2(ms), fmt.Sprintf("%.3f", perEntryUs)})
	}
	return t, nil
}

// resourcesExp reports U-Split's DRAM footprint and background staging
// work under a write-heavy run.
func resourcesExp() (*Table, error) {
	t := &Table{
		ID:      "resources",
		Title:   "U-Split resource consumption under a write-heavy run",
		Note:    "one background thread pre-allocates staging files. Staging page tables are 8 B per granted page: 32 B for each 8MB staging file here, mapped with 2MB pages, against 16 KB with 4KB pages",
		Headers: []string{"Mode", "Open files", "DRAM metadata (KB)", "Staging files created post-startup", "Log entries"},
	}
	var dramMB []float64
	for _, kind := range []string{"splitfs-posix", "splitfs-strict"} {
		e, err := paperStack(kind, appDev)
		if err != nil {
			return nil, err
		}
		sfs := e.FS.(*splitfs.FS)
		var files []vfs.File
		blk := make([]byte, sim.BlockSize)
		for i := 0; i < 16; i++ {
			f, err := vfs.Create(e.FS, fmt.Sprintf("/res%02d", i))
			if err != nil {
				return nil, err
			}
			for j := 0; j < 512; j++ { // 2 MB per file: exhausts the pool
				if _, err := f.Write(blk); err != nil {
					return nil, err
				}
			}
			if err := f.Sync(); err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		mem, created, entries := sfs.MemoryUsage(), sfs.StagingFilesCreated(), sfs.Stats().LogEntries
		dramMB = append(dramMB, float64(mem)/(1<<20))
		t.AddMetric("open_files/"+kind, float64(len(files)), "count")
		t.AddMetric("dram_mb/"+kind, float64(mem)/(1<<20), "MB")
		t.AddMetric("staging_created/"+kind, float64(created), "count")
		t.AddMetric("log_entries/"+kind, float64(entries), "count")
		t.Rows = append(t.Rows, []string{kind, fmt.Sprint(len(files)), fmt.Sprintf("%.1f", float64(mem)/1024), fmt.Sprint(created), fmt.Sprint(entries)})
		for _, f := range files {
			f.Close()
		}
	}
	t.AddMetric("dram_mb/strict_extra", dramMB[1]-dramMB[0], "MB")
	return t, nil
}

// ablationExp sweeps the paper's tunables: mmap region size (§3.6), huge
// pages off (§4), staging in DRAM (§4).
func ablationExp() (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Design ablations on a 4 KB read/append mix",
		Note:    "huge pages are fragile (§4): staging files get them because they are pre-allocated 2MB-aligned, the kernel-written cold file, at whatever offset next-fit gave it, does not. Page faults cover the whole run, staging-file pre-population at startup included — that, not the timed phases, is where the huge-page switch acts",
		Headers: []string{"Configuration", "Seq reads (Kops/s)", "Appends+fsync (Kops/s)", "Page faults (us)"},
	}
	run := func(id string, tweak func(*splitfs.Config)) ([3]float64, error) {
		spec := stack.Spec{DevBytes: 512 << 20,
			KSplit: ext4dax.Config{MaxInodes: 1024},
			USplit: splitfs.Config{StagingFiles: 8, StagingFileBytes: 8 << 20}}
		if tweak != nil {
			tweak(&spec.USplit)
		}
		st, err := stack.New("splitfs-posix", spec)
		if err != nil {
			return [3]float64{}, err
		}
		fs, clk := st.Base.(*splitfs.FS), st.Clock
		// Cold-read target: written through the kernel so U-Split has no
		// mappings yet — first touches pay mmap + fault costs, where the
		// mmap size and huge-page tunables matter (§3.6, §4).
		blk := make([]byte, sim.BlockSize)
		const fileBlocks = 2048 // 8 MB
		kf, err := vfs.Create(fs.KFS(), "/cold")
		if err != nil {
			return [3]float64{}, err
		}
		for i := 0; i < fileBlocks; i++ {
			kf.Write(blk)
		}
		kf.Sync()
		kf.Close()
		f, err := fs.OpenFile("/cold", vfs.O_RDWR, 0)
		if err != nil {
			return [3]float64{}, err
		}
		defer f.Close()
		var out [3]float64
		const nOps = 2048
		before := clk.Now()
		for i := 0; i < nOps; i++ {
			f.ReadAt(blk, int64(i%fileBlocks)*sim.BlockSize)
		}
		out[0] = kops(nOps, clk.Now()-before)
		g, err := vfs.Create(fs, "/abl")
		if err != nil {
			return [3]float64{}, err
		}
		defer g.Close()
		before = clk.Now()
		for i := 0; i < nOps; i++ {
			g.Write(blk)
			if i%10 == 9 {
				g.Sync()
			}
		}
		g.Sync()
		out[1] = kops(nOps, clk.Now()-before)
		out[2] = float64(clk.Snapshot().ByCat[sim.CatPageFault]) / 1e3
		rowMark{clk: clk}.report(id, 1) // the whole run, from the stack's start
		return out, nil
	}
	cases := []struct {
		name, id string
		tweak    func(*splitfs.Config)
	}{
		{"default (2MB mmaps, huge pages, PM staging)", "default", nil},
		{"mmap size 512KB", "mmap-512k", func(c *splitfs.Config) { c.MmapBytes = 512 << 10 }},
		{"mmap size 16MB", "mmap-16m", func(c *splitfs.Config) { c.MmapBytes = 16 << 20 }},
		{"huge pages disabled", "no-huge-pages", func(c *splitfs.Config) { c.DisableHugePages = true }},
		{"staging in DRAM", "dram-staging", func(c *splitfs.Config) { c.StageInDRAM = true }},
		{"no relink (copy on fsync)", "no-relink", func(c *splitfs.Config) { c.DisableRelink = true }},
	}
	vs := map[string][3]float64{}
	for _, c := range cases {
		v, err := run(c.id, c.tweak)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		vs[c.id] = v
		t.AddMetric("seq_read/"+c.id, v[0], "Kops/s")
		t.AddMetric("append_fsync/"+c.id, v[1], "Kops/s")
		t.AddMetric("page_faults/"+c.id, v[2], "us")
		t.Rows = append(t.Rows, []string{c.name, f1(v[0]), f1(v[1]), f1(v[2])})
	}
	addRatio(t, "seq_read", "mmap-16m", "default", vs["mmap-16m"][0], vs["default"][0])
	addRatio(t, "append_fsync", "dram-staging", "default", vs["dram-staging"][1], vs["default"][1])
	addRatio(t, "append_fsync", "no-relink", "default", vs["no-relink"][1], vs["default"][1])
	return t, nil
}
