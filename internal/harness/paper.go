package harness

import (
	"fmt"
	"strings"
)

// claim is one number from the paper's evaluation, or one ordering it
// shows, with the band the reproduction must stay in.
type claim struct {
	Exp    string  // experiment ID
	Metric string  // metric the experiment emits
	Paper  float64 // the paper's value in the metric's unit; 0 for an ordering or a qualitative claim
	Source string  // where the paper states it
	Lo, Hi float64 // band on ours÷paper; where Paper is 0, on ours
}

// claims is the paper as data: every number the reproduction is held to.
// Each band started at today's simulated value ±10 % and was narrowed to
// every bound the per-experiment tests it replaced asserted, so a wide
// band is a gap on the record, not slack. A band is edited by hand, and
// the change that edits it says why (DESIGN.md, "Fidelity: the paper as
// data").
var claims = []claim{
	{"table1", "append/ext4-dax", 9002, "Table 1", 0.824, 1.01},
	{"table1", "overhead/ext4-dax", 8331, "Table 1", 0.821, 1.01},
	{"table1", "overhead_pct/ext4-dax", 1241, "Table 1", 0.855, 1.05},
	{"table1", "append/pmfs", 4150, "Table 1", 0.922, 1.13},
	{"table1", "overhead/pmfs", 3479, "Table 1", 0.933, 1.15},
	{"table1", "overhead_pct/pmfs", 518, "Table 1", 0.971, 1.19},
	{"table1", "append/nova-strict", 3021, "Table 1", 0.902, 1.11},
	{"table1", "overhead/nova-strict", 2350, "Table 1", 0.913, 1.12},
	{"table1", "overhead_pct/nova-strict", 350, "Table 1", 0.95, 1.17},
	{"table1", "append/splitfs-strict", 1251, "Table 1", 0.878, 1.08},
	{"table1", "overhead/splitfs-strict", 580, "Table 1", 0.893, 1.1},
	{"table1", "overhead_pct/splitfs-strict", 86, "Table 1", 0.934, 1.15},
	{"table1", "append/splitfs-posix", 1160, "Table 1", 0.834, 1.02},
	{"table1", "overhead/splitfs-posix", 488, "Table 1", 0.793, 0.97},
	{"table1", "overhead_pct/splitfs-posix", 73, "Table 1", 0.821, 1.01},
	{"table1", "raw_write/splitfs-posix", 671, "Table 1", 0.865, 1.06},
	{"table1", "append/ext4-dax_vs_pmfs", 0, "Table 1 (order)", 1.74, 2.14},
	{"table1", "append/pmfs_vs_nova-strict", 0, "Table 1 (order)", 1.26, 1.55},
	{"table1", "append/nova-strict_vs_splitfs-strict", 0, "Table 1 (order)", 2.23, 2.73},
	{"table1", "append/splitfs-strict_vs_splitfs-posix", 0, "Table 1 (order)", 1.02, 1.25},
	{"table1", "append/ext4-dax_vs_splitfs-posix", 0, "Table 1 (order)", 6.9, 8.45},
	{"table2", "seq_read", 169, "Table 2", 0.947, 1.06},
	{"table2", "rand_read", 305, "Table 2", 0.905, 1.11},
	{"table2", "store_flush_fence", 91, "Table 2", 0.88, 1.06},
	{"table2", "read_bw", 39.4, "Table 2", 0.913, 1.12},
	{"table2", "write_bw", 6.9, "Table 2", 0.905, 1.11},
	{"table6", "open/splitfs-strict", 2.09, "Table 6", 0.805, 0.985},
	{"table6", "open/splitfs-sync", 2.08, "Table 6", 0.757, 0.926},
	{"table6", "open/splitfs-posix", 1.82, "Table 6", 0.865, 1.06},
	{"table6", "open/ext4-dax", 1.54, "Table 6", 0.818, 1},
	{"table6", "close/splitfs-strict", 0.78, "Table 6", 0.918, 1.13},
	{"table6", "close/splitfs-sync", 0.69, "Table 6", 0.881, 1.08},
	{"table6", "close/splitfs-posix", 0.69, "Table 6", 0.881, 1.08},
	{"table6", "close/ext4-dax", 0.34, "Table 6", 0.794, 0.971},
	{"table6", "append/splitfs-strict", 3.14, "Table 6", 0.354, 0.433},
	{"table6", "append/splitfs-sync", 3.09, "Table 6", 0.325, 0.398},
	{"table6", "append/splitfs-posix", 2.84, "Table 6", 0.345, 0.423},
	{"table6", "append/ext4-dax", 11.05, "Table 6", 0.668, 0.817},
	{"table6", "fsync/splitfs-strict", 6.85, "Table 6", 0.95, 1.05},
	{"table6", "fsync/splitfs-sync", 6.80, "Table 6", 0.95, 1.05},
	{"table6", "fsync/splitfs-posix", 6.80, "Table 6", 0.95, 1.05},
	{"table6", "fsync/ext4-dax", 28.98, "Table 6", 0.857, 1.05},
	{"table6", "read/splitfs-strict", 4.57, "Table 6", 0.903, 1.11},
	{"table6", "read/splitfs-sync", 4.53, "Table 6", 0.911, 1.12},
	{"table6", "read/splitfs-posix", 4.53, "Table 6", 0.911, 1.12},
	{"table6", "read/ext4-dax", 5.04, "Table 6", 0.876, 1.08},
	{"table6", "unlink/splitfs-strict", 14.60, "Table 6", 0.872, 1.07},
	{"table6", "unlink/splitfs-sync", 13.56, "Table 6", 0.939, 1.15},
	{"table6", "unlink/splitfs-posix", 14.33, "Table 6", 0.881, 1.08},
	{"table6", "unlink/ext4-dax", 8.60, "Table 6", 0.701, 0.858},
	{"table6", "append/ext4-dax_vs_splitfs-posix", 0, "Table 6 (order)", 6.77, 8.28},
	{"table6", "fsync/ext4-dax_vs_splitfs-strict", 0, "Table 6 (order)", 3.7, 4.54},
	{"table6", "unlink/splitfs-strict_vs_ext4-dax", 0, "Table 6 (order)", 1.9, 2.33},
	{"table6", "open/splitfs-strict_vs_splitfs-posix", 0, "Table 6 (order)", 1, 1.18},
	{"table6", "open/splitfs-posix_vs_ext4-dax", 0, "Table 6 (order)", 1.12, 1.38},
	{"fig3", "overwrite_rel/split-arch", 2, "Fig 3", 1.79, 2.2},
	{"fig3", "append/staging_vs_split-arch", 2, "Fig 3", 0.664, 0.813},
	{"fig3", "append/relink_vs_staging", 2.5, "Fig 3", 1.28, 1.57},
	{"fig3", "append/relink_vs_split-arch", 5, "Fig 3", 0.947, 1.16},
	{"fig4", "seq_read/splitfs-posix_vs_ext4-dax", 1.27, "Fig 4", 0.853, 1.05},
	{"fig4", "append/splitfs-posix_vs_ext4-dax", 7.85, "Fig 4", 0.877, 1.08},
	{"fig4", "seq_write/splitfs-sync_vs_pmfs", 2.89, "Fig 4", 0.948, 1.16},
	{"fig4", "rand_write/splitfs-strict_vs_nova-strict", 5.8, "Fig 4", 0.367, 0.449},
	{"fig4", "min/splitfs_vs_baseline", 0, "Fig 4 (SplitFS ≥ baseline)", 1.06, 1.31},
	{"fig4", "append/nova-strict_vs_strata", 0, "Fig 4 (Strata trails NOVA)", 2.67, 3.28},
	{"table7", "min/splitfs-strict_vs_strata", 1.72, "Table 7", 0.682, 0.834},
	{"table7", "max/splitfs-strict_vs_strata", 2.25, "Table 7", 1.06, 1.31},
	{"table7", "min/strata", 29.1, "Table 7", 0.759, 0.928},
	{"table7", "max/strata", 113.1, "Table 7", 4.54, 5.56},
	{"fig5", "max/ext4-dax_vs_splitfs-posix", 3.6, "Fig 5", 1.88, 2.3},
	{"fig5", "max/pmfs_vs_splitfs-sync", 1.9, "Fig 5", 2.62, 3.21},
	{"fig5", "tpcc/nova-relaxed_vs_splitfs-sync", 7.4, "Fig 5", 0.25, 0.307},
	{"fig5", "min/baseline_vs_splitfs", 0, "Fig 5 (SplitFS lowest)", 1.34, 1.65},
	{"fig6", "max/splitfs-posix_vs_ext4-dax", 2.7, "Fig 6", 1.59, 1.96},
	{"fig6", "max/splitfs-sync_vs_pmfs", 2.7, "Fig 6", 1.3, 1.6},
	{"fig6", "max/splitfs-strict_vs_nova-strict", 2.7, "Fig 6", 1.28, 1.57},
	{"fig6", "min/splitfs_vs_baseline", 0, "Fig 6 (SplitFS beats all)", 1, 1.15},
	{"fig6", "git/splitfs-posix_vs_ext4-dax", 0.85, "Fig 6", 1.02, 1.26},
	{"fig6", "tar/splitfs-posix_vs_ext4-dax", 0.85, "Fig 6", 2.03, 2.49},
	{"fig6", "rsync/splitfs-posix_vs_ext4-dax", 0.85, "Fig 6", 1.66, 2.04},
	{"recovery", "entries_18000/replay_ms", 3000, "§5.3", 0.00446, 0.00546},
	{"recovery", "entries_2000000/replay_ms", 6000, "§5.3", 0.164, 0.201},
	{"recovery", "entries_2000/replay_ms", 0, "§5.3 (one commit per replay)", 6.17, 7.55},
	{"resources", "dram_mb/splitfs-posix", 100, "§5.10", 9.75e-05, 0.00012},
	{"resources", "dram_mb/strict_extra", 40, "§5.10", 1.37e-06, 1.68e-06},
	{"ablation", "seq_read/mmap-16m_vs_default", 0, "§3.6 (2MB mmaps suffice)", 0.9, 1.11},
	{"ablation", "append_fsync/dram-staging_vs_default", 0, "§4 (DRAM staging loses)", 0.163, 0.2},
	{"ablation", "append_fsync/no-relink_vs_default", 0, "§3.3 (relink matters)", 0.251, 0.308},
}

func init() {
	register("fidelity", "The paper's numbers against ours, each within its band", func() (*Table, error) {
		return fidelity(claims, func(id string) (*Table, error) {
			if e, ok := Get(id); ok {
				return e.Run()
			}
			return nil, fmt.Errorf("experiment %q not registered", id)
		})
	})
}

// fidelity runs each experiment the claims name once, through run, and
// reports one row per claim. It fails if a row is outside its band or
// names a metric its experiment did not emit; an emitted metric no claim
// names is fine.
func fidelity(cs []claim, run func(id string) (*Table, error)) (*Table, error) {
	t := &Table{
		ID:      "fidelity",
		Title:   "The paper's numbers against ours (the band bounds ours/paper; where paper is -, ours)",
		Headers: []string{"Source", "Metric", "Ours", "Paper", "Ours/Paper", "Band", "OK"},
	}
	tables := map[string]*Table{}
	var bad []string
	for _, c := range cs {
		if tables[c.Exp] == nil {
			tbl, err := run(c.Exp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Exp, err)
			}
			tables[c.Exp] = tbl
		}
		m, found := tables[c.Exp].Metric(c.Metric)
		v, paper, rel := m.Value, "-", "-"
		if c.Paper != 0 {
			v /= c.Paper
			paper, rel = fmt.Sprintf("%.4g", c.Paper), fmt.Sprintf("%.3g", v)
		}
		name, band, verdict := c.Exp+" "+c.Metric, fmt.Sprintf("[%.3g, %.3g]", c.Lo, c.Hi), "ok"
		if !found {
			verdict = "not emitted"
		} else {
			t.AddMetric(c.Exp+"/"+c.Metric, m.Value, m.Unit)
			if c.Paper != 0 {
				t.AddMetric(c.Exp+"/"+c.Metric+"/vs_paper", v, "x")
			}
			if v < c.Lo || v > c.Hi {
				verdict = fmt.Sprintf("%.4g outside", v)
			}
		}
		t.Rows = append(t.Rows, []string{c.Source, name, fmt.Sprintf("%.4g", m.Value), paper, rel, band, verdict})
		if verdict != "ok" {
			bad = append(bad, name+": "+verdict+" "+band)
		}
	}
	if len(bad) > 0 {
		return t, fmt.Errorf("%d of %d claims fail:\n  %s", len(bad), len(cs), strings.Join(bad, "\n  "))
	}
	return t, nil
}

// claimLines renders an experiment's claims, one line per source.
func claimLines(id string) []string {
	var lines []string
	src := ""
	for _, c := range claims {
		v := fmt.Sprintf("%s %.4g", c.Metric, c.Paper)
		if c.Paper == 0 {
			v = fmt.Sprintf("%s in [%.3g, %.3g]", c.Metric, c.Lo, c.Hi)
		}
		switch {
		case c.Exp != id:
		case c.Source != src:
			src = c.Source
			lines = append(lines, "paper, "+src+": "+v)
		default:
			lines[len(lines)-1] += ", " + v
		}
	}
	return lines
}
