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

// recoveryExp crashes a strict-mode instance with growing numbers of
// valid log entries and measures replay time. The paper reports ~3 s for
// 18,000 entries and ~6 s worst case for 2M cache-line-sized writes.
func recoveryExp() (*Table, error) {
	t := &Table{
		ID:      "recovery",
		Title:   "Op-log replay time after crash",
		Note:    "paper: 18,000 entries ~3s; 2M entries (128MB log) ~6s; scales linearly",
		Headers: []string{"Valid log entries", "Replayed", "Replay time (ms)"},
	}
	for _, entries := range []int{100, 500, 2000} {
		st, err := stack.New("splitfs-strict", stack.Spec{
			DevBytes: 512 << 20, TrackPersistence: true,
			KSplit: ext4dax.Config{MaxInodes: 1024},
			USplit: splitfs.Config{StagingFiles: 8, StagingFileBytes: 8 << 20, OpLogBytes: 8 << 20},
		})
		if err != nil {
			return nil, err
		}
		f, err := vfs.Create(st.FS, "/victim")
		if err != nil {
			return nil, err
		}
		line := make([]byte, sim.CacheLine)
		for i := 0; i < entries; i++ {
			if _, err := f.Write(line); err != nil {
				return nil, err
			}
		}
		if err := st.Dev.Crash(sim.NewRNG(uint64(entries))); err != nil {
			return nil, err
		}
		_, rec, err := st.Recover()
		if err != nil {
			return nil, err
		}
		report := rec.OpLog
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(report.Entries),
			fmt.Sprint(report.Replayed),
			f2(float64(report.ReplayNs) / 1e6),
		})
	}
	return t, nil
}

// resourcesExp reports U-Split's DRAM footprint and background staging
// work under a write-heavy run.
func resourcesExp() (*Table, error) {
	t := &Table{
		ID:      "resources",
		Title:   "U-Split resource consumption under a write-heavy run",
		Note:    "paper: <=100MB DRAM metadata (+40MB in strict); one background thread for staging-file pre-allocation. Staging page tables are 8 B per granted page: 32 B for each 8MB staging file here, mapped with 2MB pages (paper: 640 B per 160MB file), against 16 KB with 4KB pages",
		Headers: []string{"Mode", "Open files", "DRAM metadata (KB)", "Staging files created post-startup", "Log entries"},
	}
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
		t.Rows = append(t.Rows, []string{
			kind,
			fmt.Sprint(len(files)),
			fmt.Sprintf("%.1f", float64(sfs.MemoryUsage())/1024),
			fmt.Sprint(sfs.StagingFilesCreated()),
			fmt.Sprint(sfs.Stats().LogEntries),
		})
		for _, f := range files {
			f.Close()
		}
	}
	return t, nil
}

// ablationExp sweeps the paper's tunables: mmap region size (§3.6), huge
// pages off (§4), staging in DRAM (§4).
func ablationExp() (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Design ablations on a 4 KB read/append mix",
		Note:    "paper: DRAM staging loses to PM staging because fsync must copy; 2MB mmaps suffice; huge pages are fragile (§4): staging files get them because they are pre-allocated 2MB-aligned, the kernel-written cold file, at whatever offset next-fit gave it, does not. Page faults cover the whole run, staging-file pre-population at startup included — that, not the timed phases, is where the huge-page switch acts",
		Headers: []string{"Configuration", "Seq reads (Kops/s)", "Appends+fsync (Kops/s)", "Page faults (us)"},
	}
	run := func(tweak func(*splitfs.Config)) ([3]float64, error) {
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
		out[2] = float64(clk.Category(sim.CatPageFault)) / 1e3
		return out, nil
	}
	cases := []struct {
		name  string
		tweak func(*splitfs.Config)
	}{
		{"default (2MB mmaps, huge pages, PM staging)", nil},
		{"mmap size 512KB", func(c *splitfs.Config) { c.MmapBytes = 512 << 10 }},
		{"mmap size 16MB", func(c *splitfs.Config) { c.MmapBytes = 16 << 20 }},
		{"huge pages disabled", func(c *splitfs.Config) { c.DisableHugePages = true }},
		{"staging in DRAM", func(c *splitfs.Config) { c.StageInDRAM = true }},
		{"no relink (copy on fsync)", func(c *splitfs.Config) { c.DisableRelink = true }},
	}
	for _, c := range cases {
		v, err := run(c.tweak)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		t.Rows = append(t.Rows, []string{c.name, f1(v[0]), f1(v[1]), f1(v[2])})
	}
	return t, nil
}
