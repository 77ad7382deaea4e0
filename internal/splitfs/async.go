package splitfs

import (
	"sort"
	"sync"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// The asynchronous relink pipeline (see DESIGN.md, "Asynchronous relink
// pipeline"). fsync no longer runs its relink inline: it enqueues its
// file on a per-ofile-deduplicated FIFO and blocks only until the batch
// containing its file has group-committed. Draining happens on the
// enqueuing goroutine itself, which pops and processes the entire queue:
// a single-threaded run produces a bit-identical persistence-event
// stream every time (the crash harness's record/replay depends on it),
// and concurrent fsync callers drain — and so coalesce — each other's
// requests.
//
// A drain takes whatever is queued, runs every file's relink steps
// (each under only that file's lock), and issues ONE journal commit for
// the whole batch: concurrent fsyncs of distinct files coalesce into one
// journal transaction and one fence pair, jbd2-style. After the commit
// the drain releases the consumed staging references and advances the
// staging pool's reclamation epoch, so retired staging files are
// unmapped and unlinked off the fsync hot path.

// relinkRequest is one queued fsync. Requests for the same ofile
// coalesce while still queued: the eventual drain relinks everything
// staged at that moment, which covers every waiter. A request being
// processed no longer coalesces (its steps may have already snapshotted
// the overlay), so a new fsync starts a fresh request.
type relinkRequest struct {
	of   *ofile
	done chan struct{}
	err  error

	// drain-time scratch, owned by the processing goroutine
	txid     uint64
	released []stagedRange
}

// relinkPipeline is the queue plus its drain machinery.
type relinkPipeline struct {
	fs *FS

	mu      sync.Mutex                // +lockrank:pipeline
	queue   []*relinkRequest          // FIFO
	pending map[*ofile]*relinkRequest // queued (not yet popped) per ofile
}

func newRelinkPipeline(fs *FS) *relinkPipeline {
	return &relinkPipeline{fs: fs, pending: make(map[*ofile]*relinkRequest)}
}

// enqueue adds an ofile to the queue, coalescing with a still-queued
// request for the same file.
func (p *relinkPipeline) enqueue(of *ofile) *relinkRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.pending[of]; ok {
		return r
	}
	r := &relinkRequest{of: of, done: make(chan struct{})}
	p.pending[of] = r
	p.queue = append(p.queue, r)
	return r
}

// popAll takes the whole queue — the group that will share one commit.
func (p *relinkPipeline) popAll() []*relinkRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	batch := p.queue
	p.queue = nil
	for _, r := range batch {
		delete(p.pending, r.of)
	}
	return batch
}

// syncFile is fsync's durability path: enqueue, then drain on this
// goroutine.
func (p *relinkPipeline) syncFile(of *ofile) error {
	p.fs.clk.Charge(sim.CatCPU, sim.USplitEnqueueNs)
	r := p.enqueue(of)
	p.drainUntil(r)
	return r.err
}

// groupSync makes every listed ofile's staged data durable through as
// few commits as the queue allows — typically exactly one. The ofiles
// must be in deterministic order for the event stream to be (callers
// sort by inode).
func (p *relinkPipeline) groupSync(ofiles []*ofile) error {
	if len(ofiles) == 0 {
		return nil
	}
	p.fs.clk.Charge(sim.CatCPU, sim.USplitEnqueueNs)
	reqs := make([]*relinkRequest, len(ofiles))
	for i, of := range ofiles {
		reqs[i] = p.enqueue(of)
	}
	var first error
	for _, r := range reqs {
		p.drainUntil(r)
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	return first
}

// drainUntil processes queue batches on the calling goroutine until r
// completes. If another drainer raced us to the whole queue, r is in its
// batch and we only wait.
func (p *relinkPipeline) drainUntil(r *relinkRequest) {
	for {
		select {
		case <-r.done:
			return
		default:
		}
		batch := p.popAll()
		if len(batch) == 0 {
			<-r.done
			return
		}
		p.processBatch(batch)
	}
}

// processBatch runs the relink steps of every request — each under only
// its own file's lock — then group-commits the shared journal
// transaction once, releases the consumed staging references, and lets
// the epoch reclaimer unmap retired staging files. Persistence events
// issued here are tagged SrcRelinkWorker (and SrcReclaim) so the crash
// harness's coverage stats can see the pipeline's stages.
func (p *relinkPipeline) processBatch(batch []*relinkRequest) {
	fs := p.fs
	prev := fs.dev.SetEventSource(pmem.SrcRelinkWorker)
	defer fs.dev.SetEventSource(prev)
	var maxTx uint64
	for _, r := range batch {
		r.of.mu.Lock()
		r.txid, r.released, r.err = fs.relinkStepsLocked(r.of)
		r.of.mu.Unlock()
		if r.err == nil && r.txid > maxTx {
			maxTx = r.txid
		}
	}
	// One commit covers the whole batch: transaction ids are monotone and
	// every successful step set joined a transaction with id <= maxTx.
	var commitErr error
	if maxTx > 0 {
		commitErr = fs.kfs.CommitUpTo(maxTx)
	}
	for _, r := range batch {
		if r.err == nil {
			r.err = commitErr
		}
		// On error the staging references are deliberately NOT released:
		// the popped overlay is gone from the volatile view (pre-existing
		// fsync-failure semantics), but strict-mode recovery can still
		// replay the writes from the op log as long as the staged bytes
		// stay allocated — releasing them could reclaim (unlink) the
		// staging file and turn a reported error into silent data loss
		// after a crash.
		if r.err == nil {
			fs.staging.release(r.released)
		}
	}
	if commitErr == nil {
		fs.dev.SetEventSource(pmem.SrcReclaim)
		fs.staging.reclaim()
	}
	for _, r := range batch {
		close(r.done)
	}
}

// GroupSync makes the staged data of every listed file durable through
// one group-committed relink batch — the batched fsync the paper's
// jbd2-style group commit enables. Duplicate and nil handles are
// tolerated; files are drained in deterministic (inode) order.
func (fs *FS) GroupSync(files ...*File) error {
	seen := make(map[*ofile]bool, len(files))
	ofiles := make([]*ofile, 0, len(files))
	for _, f := range files {
		if f == nil || f.closed.Load() || seen[f.of] {
			continue
		}
		seen[f.of] = true
		ofiles = append(ofiles, f.of)
	}
	sort.Slice(ofiles, func(i, j int) bool { return ofiles[i].ino < ofiles[j].ino })
	fs.bookkeep()
	return fs.pipeline.groupSync(ofiles)
}
