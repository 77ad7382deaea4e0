package splitfs

import (
	"fmt"
	"sync"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// stagingDir is where U-Split keeps its staging files on K-Split.
const stagingDir = "/.splitfs-staging"

// stagingFile is one pre-allocated staging file, fully memory-mapped so
// staged writes are pure user-space stores.
type stagingFile struct {
	id   int
	path string
	kf   *ext4dax.File
	m    *ext4dax.Mapping
	size int64
	tail int64 // next unreserved byte

	// refs counts live references: one per stagedRange entry recorded in
	// an ofile overlay, plus one per ofile whose active append chunk
	// lives in this file. sealed marks a file the allocator has moved
	// past (no new reservations). A sealed file whose refs reach zero is
	// retired: the next reclaim() unmaps, closes, and unlinks it, off the
	// hot path. Both guarded by pool.mu.
	refs   int
	sealed bool
}

// stagingChunk is a reservation inside a staging file, aligned so that
// chunk offsets are congruent (mod 4 KB) with the file offsets they
// stage — the alignment relink needs to move whole blocks. A chunk has
// exactly one holder, the ofile whose active append region it is; what
// that ofile has not used when it lets go is given back (releaseChunk).
type stagingChunk struct {
	sf   *stagingFile
	base int64 // first byte of the reservation
	end  int64 // first byte past it
	used int64 // bytes consumed
}

// stagingPool manages the staging files (§3.5: ten files pre-allocated at
// startup; a new one is created when one is used up). Each is one
// pre-allocated extent, 2 MB-aligned on the device unless huge pages are
// disabled or no such run is free, mapped pre-faulted with the page size
// that alignment earns it. The pool hands out the current file front to
// back and takes back the unused tail of the last reservation, so a file
// lasts for as many bytes as were staged into it, not as many chunks as
// were reserved (DESIGN.md, "Staging reservations"). The paper creates
// replacements on a background thread; here creation happens inline
// under mu, its cost (allocation, journal commit, page population) lands
// on the reserving operation's simulated time, and the count is in
// Stats (StagingFilesCreated).
type stagingPool struct {
	fs *FS

	mu      sync.Mutex // +lockrank:stagingpool
	ready   []*stagingFile
	current *stagingFile
	nextID  int
	created int // files created after startup ("background thread" work)

	// Reclamation runs on the refcounts alone (DESIGN.md, "Staging
	// reclamation"): every access through a staging file's mapping
	// happens under the owning ofile.mu, on a staged range or active
	// chunk that still holds its reference, and a range gives its
	// reference up only after the relink that popped it — under that
	// lock's write side — has committed. So once a sealed file's count
	// reaches zero nothing can reach its mapping, and it waits in retired
	// only for the next reclaim().
	sealed    []*stagingFile // sealed, still referenced by overlays/chunks
	retired   []*stagingFile // sealed and unreferenced
	reclaimed int            // staging files unmapped+unlinked by reclaim
}

func newStagingPool(fs *FS) (*stagingPool, error) {
	if fs.kfs == nil {
		return nil, fmt.Errorf("splitfs: staging pool needs a mounted K-Split")
	}
	p := &stagingPool{fs: fs}
	if err := fs.kfs.Mkdir(stagingDir, 0700); err != nil {
		// Directory may already exist when several U-Split instances
		// share one K-Split.
		if _, statErr := fs.kfs.Stat(stagingDir); statErr != nil {
			return nil, err
		}
	}
	for i := 0; i < fs.cfg.StagingFiles; i++ {
		sf, err := p.createFile()
		if err != nil {
			return nil, err
		}
		p.ready = append(p.ready, sf)
	}
	return p, nil
}

// createFile pre-allocates and maps one staging file.
func (p *stagingPool) createFile() (*stagingFile, error) {
	id := p.nextID
	p.nextID++
	path := fmt.Sprintf("%s/stage-%s-%d", stagingDir, p.fs.mode, id)
	f, err := p.fs.kfs.OpenFile(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0600)
	if err != nil {
		return nil, err
	}
	kf := f.(*ext4dax.File)
	// A huge mapping needs a 2 MB-aligned backing extent, so ask for one —
	// unless the file is not a whole number of huge pages, which Mmap
	// never maps huge whatever its extent.
	huge := !p.fs.cfg.DisableHugePages
	var align int64
	if huge && p.fs.cfg.StagingFileBytes%ext4dax.HugePageSize == 0 {
		align = ext4dax.HugePageSize
	}
	if err := kf.Preallocate(p.fs.cfg.StagingFileBytes/sim.BlockSize, align); err != nil {
		return nil, err
	}
	m, err := p.fs.kfs.Mmap(kf, 0, p.fs.cfg.StagingFileBytes, ext4dax.MmapOptions{
		Populate: true,
		Huge:     huge,
	})
	if err != nil {
		return nil, err
	}
	// The staging file's metadata must be durable before data staged into
	// it can count on recovery.
	if err := p.fs.kfs.CommitMeta(); err != nil {
		return nil, err
	}
	return &stagingFile{id: id, path: path, kf: kf, m: m, size: p.fs.cfg.StagingFileBytes}, nil
}

// reserve hands out a chunk whose base is congruent to align (mod 4 KB).
// Append chunks are rounded up to the configured chunk size so that
// consecutive appends pack into one relinkable run; exact reservations
// (staged overwrites) take only the blocks they cover, since each
// overwrite relinks independently.
//
// The chunk comes back as a value, for the caller to keep wherever it
// keeps its active chunk (stageWrite reuses the ofile's).
func (p *stagingPool) reserve(n, align int64, exact bool) (stagingChunk, error) {
	p.fs.clk.Charge(sim.CatCPU, sim.USplitStagingNs)
	want := n
	if exact {
		// Cover the partial head and round to whole blocks so the
		// trailing partial block stays private to this reservation.
		want = (align%sim.BlockSize + n + sim.BlockSize - 1) /
			sim.BlockSize * sim.BlockSize
	} else if want < p.fs.cfg.StagingChunkBytes {
		want = p.fs.cfg.StagingChunkBytes
	}
	if align%sim.BlockSize+want > p.fs.cfg.StagingFileBytes {
		// Not even an empty staging file could hold it (stageWrite splits
		// writes so that this cannot happen): sealing files would not help.
		return stagingChunk{}, vfs.ErrNoSpace
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// At most two rounds: what the current file cannot hold, the empty
	// file that replaces it can.
	for {
		if p.current == nil {
			if len(p.ready) > 0 {
				p.current = p.ready[0]
				p.ready = p.ready[1:]
			} else {
				// Pool exhausted: create synchronously (the paper's
				// background thread; see DESIGN.md).
				sf, err := p.createFile()
				if err != nil {
					return stagingChunk{}, err
				}
				p.created++
				p.current = sf
			}
		}
		sf := p.current
		base := (sf.tail + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize
		base += align % sim.BlockSize
		if base+want <= sf.size {
			sf.tail = base + want
			// The chunk holds a reference for as long as an ofile keeps it
			// as its active append region (released via releaseChunk).
			sf.refs++
			return stagingChunk{sf: sf, base: base, end: base + want}, nil
		}
		// Staging file used up; move to the next. The exhausted file is
		// sealed: no new reservations, and once its last staged range and
		// active chunk release their references it is retired, to be
		// unmapped and unlinked off the hot path.
		sf.sealed = true
		if sf.refs == 0 {
			p.retired = append(p.retired, sf)
		} else {
			p.sealed = append(p.sealed, sf)
		}
		p.current = nil
	}
}

// addRangeRef records that a new stagedRange entry references sf.
func (p *stagingPool) addRangeRef(sf *stagingFile) {
	p.mu.Lock()
	sf.refs++
	p.mu.Unlock()
}

// release drops the reference held by each staged range (one per overlay
// entry: merged appends extend an existing entry and hold a single
// reference). Called after the relink batch that consumed the ranges has
// group-committed — recovery may need the staged bytes until then.
func (p *stagingPool) release(ranges []stagedRange) {
	p.mu.Lock()
	for _, r := range ranges {
		if r.sf != nil {
			p.unrefLocked(r.sf)
		}
	}
	p.mu.Unlock()
}

// releaseChunk drops an ofile's active-chunk reference (the chunk is
// being replaced, or its ofile is going away) and gives its unused tail
// back: while the chunk is still its staging file's last reservation,
// the file's tail rolls back to the block after the bytes staged into
// it, so the next reservation starts there. The block holding the last
// staged byte is never given back — its bytes may still be read through
// an overlay or named by an op-log entry. A chunk that a later
// reservation already follows, or whose file has been sealed, keeps its
// tail: nothing could use it.
func (p *stagingPool) releaseChunk(c *stagingChunk) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if sf := c.sf; sf.tail == c.end && !sf.sealed {
		sf.tail = (c.base + c.used + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize
	}
	p.unrefLocked(c.sf)
	p.mu.Unlock()
}

func (p *stagingPool) unrefLocked(sf *stagingFile) {
	sf.refs--
	if sf.refs == 0 && sf.sealed {
		for i, s := range p.sealed {
			if s == sf {
				p.sealed = append(p.sealed[:i], p.sealed[i+1:]...)
				break
			}
		}
		p.retired = append(p.retired, sf)
	}
}

// reclaim unmaps, closes, and unlinks every retired file. syncFiles calls
// this after each commit, keeping the munmap and unlink cost off the
// fsync hot path; the unlink's block frees join the running journal
// transaction and commit with the next group commit. Returns how many
// files were reclaimed.
func (p *stagingPool) reclaim() int {
	p.mu.Lock()
	free := p.retired
	p.retired = nil
	p.reclaimed += len(free)
	p.mu.Unlock()
	for _, sf := range free {
		sf.m.Unmap()
		sf.kf.Close()
		// A failed unlink (it cannot fail for a live staging path) would
		// only leave the file for recovery's staging-dir sweep.
		_ = p.fs.kfs.Unlink(sf.path)
	}
	return len(free)
}

// Refill tops the ready pool back up to the configured count, as the
// paper's background thread would between bursts. Exposed so benchmarks
// can model off-critical-path pre-allocation.
func (p *stagingPool) refill() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ready) < p.fs.cfg.StagingFiles {
		sf, err := p.createFile()
		if err != nil {
			return err
		}
		p.ready = append(p.ready, sf)
	}
	return nil
}

// memoryUsage estimates the pool's DRAM footprint: per staging file, a
// fixed ~128 bytes of bookkeeping (stagingFile struct, pool slot, kernel
// handle) plus the page-table overhead of its persistent mapping — 8
// bytes per mapped page, where the page size depends on whether the
// mapping was granted huge pages. Sealed files still referenced by
// staged ranges, and retired files awaiting the next reclaim(), count
// too; reclaimed files do not — unmapping them is exactly
// what returns their page tables. This is the dominant §5.10 term: the
// paper's 160 MB staging files cost ~320 KB of page tables each with
// 4 KB pages, versus 640 B with 2 MB pages.
func (p *stagingPool) memoryUsage() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b int64
	count := func(sf *stagingFile) {
		b += 128
		if sf.m != nil {
			b += sf.m.TableBytes()
		}
	}
	for _, sf := range p.ready {
		count(sf)
	}
	for _, sf := range p.sealed {
		count(sf)
	}
	for _, sf := range p.retired {
		count(sf)
	}
	if p.current != nil {
		count(p.current)
	}
	return b
}

// Refill exposes staging-pool replenishment (the paper's background
// thread) for benchmark harnesses.
func (fs *FS) Refill() error { return fs.staging.refill() }

// StagingFilesCreated reports how many staging files were created after
// startup — the work the paper's background thread absorbs (§5.10).
func (fs *FS) StagingFilesCreated() int {
	fs.staging.mu.Lock()
	defer fs.staging.mu.Unlock()
	return fs.staging.created
}

// StagingFilesReclaimed reports how many retired staging files have
// been unmapped and unlinked.
func (fs *FS) StagingFilesReclaimed() int {
	fs.staging.mu.Lock()
	defer fs.staging.mu.Unlock()
	return fs.staging.reclaimed
}
