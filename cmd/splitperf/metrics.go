package main

import (
	"fmt"
	"math"
	"strings"

	"splitfs/internal/sim"
)

// metric is one named number. Units in the simulated domain say so
// (sim_ns): they are exact functions of the seed, not host times.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// measured is everything one run observed around its timed phase.
type measured struct {
	cfg           config
	setups        []float64 // seconds, one per set-up repetition
	before, after snapshot
	clients       []*client
	layers        layers
	rounds        []round
	wall          float64 // timed phase, seconds
	truncated     bool    // the host was so slow that the phase was cut short
	peakRSSMB     float64
	refSpinMs     [2]float64 // before, after
	refMemcpyMs   [2]float64
	recoverHostMs float64 // append-fsync only
	recoverSimUs  float64
	memoryMB      float64
	probes        []metric // traced runs and -probes
	link          linked   // traced runs
}

func (m *measured) calls() (n int64) {
	for _, c := range m.clients {
		n += c.calls
	}
	return n
}

func (m *measured) failed() (n int64) {
	for _, c := range m.clients {
		n += c.failed
	}
	return n
}

// opStreamHash folds the clients' hashes in client order.
func (m *measured) opStreamHash() (h uint64) {
	for _, c := range m.clients {
		h = (h ^ c.hash) * 0x100000001b3
	}
	return h
}

// plain reports whether round r ran untraced: a traced run traces its
// even rounds.
func (m *measured) plain(r int) bool { return !m.cfg.trace || r%2 == 1 }

// nsPerCall are the wall nanoseconds per call of every round that ran
// plain, or of every round that ran traced.
func (m *measured) nsPerCall(plain bool) []float64 {
	var v []float64
	for r, rd := range m.rounds {
		if rd.calls != 0 && m.plain(r) == plain {
			v = append(v, float64(rd.wallNs)/float64(rd.calls))
		}
	}
	return v
}

// plainLatencies returns the critical-op samples of the rounds that ran
// plain, in us.
func (m *measured) plainLatencies() []float64 {
	var all []float64
	for _, c := range m.clients {
		lo := 0
		for r := range m.rounds {
			if m.plain(r) {
				for _, ns := range c.lat[lo:c.latMark[r]] {
					all = append(all, float64(ns)/1e3)
				}
			}
			lo = c.latMark[r]
		}
	}
	return all
}

// endToEnd are the metrics a user of the stack would see, the same
// names on every workload, always from an untraced run.
func (m *measured) endToEnd() []metric {
	ops := float64(m.calls())
	d := m.after.sim.Sub(m.before.sim)
	pm := subPM(m.after.pm, m.before.pm)
	var wbytes int64
	for _, c := range m.clients {
		wbytes += c.wbytes
	}
	return []metric{
		{"setup_s", median(append([]float64(nil), m.setups...)), "s"},
		{"host_peak_rss_mb", m.peakRSSMB, "MB"},
		{"sim_ns_per_op", float64(d.Total) / ops, "sim_ns"},
		{"sim_overhead_ns_per_op", float64(d.Overhead()) / ops, "sim_ns"},
		{"pm_write_amp", float64(pm.BytesWritten()) / float64(wbytes), "x"},
	}
}

// vfsOps are the call kinds that get their own vfs.<op>.* metrics.
var vfsOps = []uint8{opRead, opWrite, opFsync, opOpen, opClose, opUnlink, opRename, opStat}

// perLayer are the single-layer metrics: counter deltas per call, what
// the traced boundaries saw, and the host-time probes.
func (m *measured) perLayer() ([]metric, error) {
	out, err := m.counters()
	return append(append(out, m.traced()...), m.probes...), err
}

// counters are the per-layer metrics any run can report: deltas of the
// layers' public counters around the timed phase, and the harness's own
// observations.
func (m *measured) counters() ([]metric, error) {
	ops := float64(m.calls())
	per := func(v int64) float64 { return float64(v) / ops }
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	d := m.after.sim.Sub(m.before.sim)
	var sum int64
	for _, c := range sim.Categories() {
		sum += d.ByCat[c]
		add("sim."+strings.ReplaceAll(c.String(), "-", "_")+"_ns_per_op", per(d.ByCat[c]), "sim_ns")
	}
	if sum != d.Total {
		return nil, fmt.Errorf("simulated categories sum to %d ns, the clock advanced %d ns", sum, d.Total)
	}

	pm := subPM(m.after.pm, m.before.pm)
	add("pmem.bytes_nt_per_op", per(pm.BytesWrittenNT), "B")
	add("pmem.bytes_cached_per_op", per(pm.BytesWrittenCached), "B")
	add("pmem.bytes_read_per_op", per(pm.BytesRead), "B")
	add("pmem.flushes_per_op", per(pm.Flushes), "count")
	add("pmem.lines_persisted_per_op", per(pm.LinesPersisted), "count")
	add("pmem.fences_per_op", per(pm.Fences), "count")
	for i, src := range []string{"fg", "relink", "reclaim"} {
		add("pmem."+src+"_bytes_per_op", per(m.after.src[i].BytesWritten-m.before.src[i].BytesWritten), "B")
	}

	k0, k1 := m.before.kfs, m.after.kfs
	add("journal.commits_per_op", per(k1.Commits-k0.Commits), "count")
	add("ext4dax.traps_per_op", per(k1.Traps-k0.Traps), "count")
	add("ext4dax.meta_ops_per_op", per(k1.MetaOps-k0.MetaOps), "count")
	add("ext4dax.data_writes_per_op", per(k1.DataWrites-k0.DataWrites), "count")
	add("ext4dax.data_reads_per_op", per(k1.DataReads-k0.DataReads), "count")
	add("ext4dax.gc_follower_frac", frac(k1.GCFollowers-k0.GCFollowers, k1.GCLeaders-k0.GCLeaders+k1.GCFollowers-k0.GCFollowers), "frac")

	u0, u1 := m.before.ufs, m.after.ufs
	add("splitfs.user_reads_per_op", per(u1.UserReads-u0.UserReads), "count")
	add("splitfs.user_writes_per_op", per(u1.UserWrites-u0.UserWrites), "count")
	add("splitfs.appends_per_op", per(u1.Appends-u0.Appends), "count")
	add("splitfs.staged_bytes_per_op", per(u1.StagedBytes-u0.StagedBytes), "B")
	add("splitfs.relinks_per_op", per(u1.Relinks-u0.Relinks), "count")
	add("splitfs.relink_blocks_per_op", per(u1.RelinkBlocks-u0.RelinkBlocks), "count")
	add("splitfs.copied_bytes_per_op", per(u1.CopiedBytes-u0.CopiedBytes), "B")
	add("splitfs.log_entries_per_op", per(u1.LogEntries-u0.LogEntries), "count")
	add("splitfs.checkpoints", float64(u1.Checkpoints-u0.Checkpoints), "count")
	hits, misses := u1.MmapHits-u0.MmapHits, u1.MmapMisses-u0.MmapMisses
	add("splitfs.mmap_hit_frac", frac(hits, hits+misses), "frac")
	add("splitfs.staging_files_created", float64(m.after.created-m.before.created), "count")
	add("splitfs.staging_files_reclaimed", float64(m.after.reclaimed-m.before.reclaimed), "count")
	add("splitfs.memory_usage_mb", m.memoryMB, "MB")
	add("splitfs.recover_host_ms", m.recoverHostMs, "ms")
	add("splitfs.recover_sim_us", m.recoverSimUs, "sim_us")

	c0, c1 := m.before.cli, m.after.cli
	add("server.wire_read_bytes_per_op", per(c1.WireReadBytes-c0.WireReadBytes), "B")
	add("server.wire_write_bytes_per_op", per(c1.WireWriteBytes-c0.WireWriteBytes), "B")
	add("server.leased_read_bytes_per_op", per(c1.LeasedReadBytes-c0.LeasedReadBytes), "B")
	add("server.leased_write_bytes_per_op", per(c1.LeasedWriteBytes-c0.LeasedWriteBytes), "B")
	add("server.lease_grants", float64(c1.LeaseGrants-c0.LeaseGrants), "count")
	add("server.lease_revocations", float64(c1.LeaseRevocations-c0.LeaseRevocations), "count")
	add("server.lease_fallbacks", float64(c1.LeaseFallbacks-c0.LeaseFallbacks), "count")

	// Host time, as measured, over the rounds that ran plain. The host
	// this was calibrated on moves these by a fifth between runs of the
	// same code (README, "Host noise"), which is why none of them is an
	// end-to-end metric with a bound.
	var wallNs, cpuNs, calls int64
	for r, rd := range m.rounds {
		if m.plain(r) {
			wallNs, cpuNs, calls = wallNs+rd.wallNs, cpuNs+rd.cpuNs, calls+rd.calls
		}
	}
	ns := m.nsPerCall(true)
	add("harness.host_ops_per_s", float64(calls)/float64(wallNs)*1e9, "1/s")
	add("harness.quiet_ops_per_s", 1e9/quantile(ns, 0.25), "1/s")
	add("harness.host_cpu_us_per_op", float64(cpuNs)/1e3/float64(calls), "us")
	lat := m.plainLatencies()
	add("harness.host_p50_us", quantile(lat, 0.5), "us")
	add("harness.host_p99_us", quantile(lat, 0.99), "us")
	add("harness.latency_samples", float64(len(lat)), "count")
	add("harness.window_cv", coefVar(ns), "frac")
	add("harness.allocs_per_op", float64(m.after.mallocs-m.before.mallocs)/ops, "count")
	add("harness.alloc_bytes_per_op", float64(m.after.allocated-m.before.allocated)/ops, "B")
	add("harness.invol_ctx_switches", float64(m.after.involCtx-m.before.involCtx), "count")
	add("harness.ref_spin_ms", (m.refSpinMs[0]+m.refSpinMs[1])/2, "ms")
	add("harness.ref_memcpy_ms", (m.refMemcpyMs[0]+m.refMemcpyMs[1])/2, "ms")
	return out, nil
}

// traced are the per-layer metrics only a traced run has: what the
// boundary facing the driver saw per call kind, the server's self time,
// and what tracing cost.
func (m *measured) traced() []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	var count, simNs [numOps]int64
	host := make([][]float64, numOps)
	var total int64
	if tr := m.layers.tr; tr != nil {
		for _, s := range tr.sinks {
			if s.layer == "backend" {
				continue
			}
			for op := range count {
				count[op] += s.count[op]
				simNs[op] += s.simNs[op]
				total += s.count[op]
			}
			for i := range s.spans {
				sp := &s.spans[i]
				host[sp.op] = append(host[sp.op], float64(sp.end-sp.start)/1e3)
			}
		}
	}
	for _, op := range vfsOps {
		name := "vfs." + opNames[op]
		add(name+".count_frac", frac(count[op], total), "frac")
		add(name+".host_p50_us", median(host[op]), "us")
		add(name+".sim_ns", frac(simNs[op], count[op]), "sim_ns")
	}

	self := make([]float64, len(m.link.self))
	for i, ns := range m.link.self {
		self[i] = float64(ns) / 1e3
	}
	add("server.self_host_p50_us", median(self), "us")

	// Traced and plain rounds alternate, so their medians saw the same
	// host; two processes minutes apart would differ by more than the
	// overhead.
	overhead := 0.0
	if m.cfg.trace {
		overhead = median(m.nsPerCall(false))/median(m.nsPerCall(true)) - 1
	}
	add("harness.trace_overhead_frac", overhead, "frac")
	return out
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// coefVar is the standard deviation over the mean.
func coefVar(v []float64) float64 {
	var mu float64
	for _, x := range v {
		mu += x / float64(len(v))
	}
	if mu == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mu) * (x - mu)
	}
	return math.Sqrt(ss/float64(len(v))) / mu
}
