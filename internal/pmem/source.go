package pmem

// Per-event-source device accounting for the observability plane: a
// write goes through a Writer, which names its source, and the source
// that tags the write's persistence events also buckets its bytes,
// flushed lines and fences, so a stats snapshot can attribute PM traffic
// to the foreground syscall path versus the background relink and
// reclaim stages — exactly, however many goroutines write at once.

import "splitfs/internal/obs"

// SourceStats is the per-source slice of the write-path counters.
type SourceStats struct {
	BytesWritten int64 // temporal + non-temporal + buffered store bytes
	FlushedLines int64 // dirty lines moved to the write-pending queue
	Fences       int64
}

// Writer is the device's write path under one event source: what its
// stores, flushes and fences write, count and trace is that source's. A
// Device's own write methods are its foreground's Writer's.
type Writer struct {
	d   *Device
	src EventSource
}

// foreground names the Writer a Device embeds for its own write methods.
type foreground = Writer

// As returns the device's write path under src, which must be Known.
func (d *Device) As(src EventSource) Writer { return Writer{d, src} }

// FenceCount reports the cumulative fence count — the feed the served
// stack samples around each op for flight-record fence deltas.
func (d *Device) FenceCount() int64 { return d.nFences.Load() }

// SourceStats returns the counters attributed to one event source.
func (d *Device) SourceStats(src EventSource) SourceStats {
	if !src.Known() {
		return SourceStats{}
	}
	return SourceStats{
		BytesWritten: d.srcBytes[src].Load(),
		FlushedLines: d.srcFlushes[src].Load(),
		Fences:       d.srcFences[src].Load(),
	}
}

// RegisterObs exports the device counters into an obs registry as
// computed gauges (zero hot-path cost): totals under pmem/, and the
// write path broken down by event source under pmem/src/<label>/.
func (d *Device) RegisterObs(r *obs.Registry) {
	r.Func("pmem/bytes_written", func() int64 { return d.Stats().BytesWritten() })
	r.Func("pmem/bytes_read", d.nBytesRead.Load)
	r.Func("pmem/flushes", d.nFlushes.Load)
	r.Func("pmem/fences", d.nFences.Load)
	r.Func("pmem/lines_persisted", d.nPersisted.Load)
	r.Func("pmem/events", d.events.Load)
	for src := EventSource(0); src < evSources; src++ {
		src := src
		prefix := "pmem/src/" + src.String() + "/"
		r.Func(prefix+"bytes_written", d.srcBytes[src].Load)
		r.Func(prefix+"flushed_lines", d.srcFlushes[src].Load)
		r.Func(prefix+"fences", d.srcFences[src].Load)
	}
}
