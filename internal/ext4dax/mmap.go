package ext4dax

import (
	"sync/atomic"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Mapping is a DAX memory mapping: a direct window onto the file's PM
// extents. Loads and stores through a Mapping cost no kernel trap — this
// is the mechanism U-Split uses to serve data operations in user space.
//
// A Mapping remains valid after Relink moves its physical blocks to
// another file; it keeps addressing the same physical data,
// which is the property the paper's relink depends on to avoid page
// faults (§3.5).
//
// It is a page table: one device offset per mapped page. Remap edits the
// entries under a moved range in place while loads and stores go on, so
// entries and length are atomics, and a grown length is published only
// after the entries under it: an access sees each page wholly where it
// was or wholly where it is.
type Mapping struct {
	fs      *FS
	Ino     uint64
	FileOff int64
	Huge    bool // backed by 2 MB pages

	pageSz int64
	pages  []atomic.Int64 // device offset of each page; the capacity is fixed
	length atomic.Int64   // bytes mapped: the entries below it are valid

	faulted []bool // per-page soft-fault state when not pre-populated
}

// MmapOptions control population and huge-page behaviour.
type MmapOptions struct {
	// Populate pre-faults all pages (MAP_POPULATE), moving fault cost to
	// mmap time; the paper observes this makes open() expensive but keeps
	// faults off the data path (§4).
	Populate bool
	// Huge requests 2 MB pages. Granted only if the file offset and every
	// backing physical extent piece is 2 MB aligned and sized — the
	// fragility the paper describes (§4: "huge pages are fragile").
	Huge bool
}

// HugePageSize is the huge-page size: the alignment, of file offset,
// length and every backing extent, that a Huge mapping needs.
const HugePageSize = 2 << 20

// Mmap maps [off, off+length) of the file. The range is clamped to the
// file's allocated blocks; mapping a hole is an error (it would SIGBUS on
// access).
func (fs *FS) Mmap(f *File, off, length int64, opts MmapOptions) (*Mapping, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trap()
	fs.clk.Charge(sim.CatCPU, sim.MmapSyscallNs)
	m, err := fs.remapLocked(nil, f, off, length, opts.Huge, 0, 0)
	if err != nil {
		return nil, err
	}
	nPages := int64(len(m.pages))
	if opts.Populate {
		faultCost := int64(sim.PageFault4KNs)
		if m.Huge {
			faultCost = sim.PageFault2MNs
		}
		fs.clk.Charge(sim.CatPageFault, nPages*faultCost)
	} else {
		m.faulted = make([]bool, nPages)
	}
	return m, nil
}

// Remap brings m, a mapping of [off, off+length) of the file (nil for
// none yet), up to date after the blocks under [from, from+n) moved, with
// no syscall, fault or population charge and every page pre-faulted. It
// models the paper's modified relink ioctl, which updates existing memory
// mappings in place so that post-relink accesses incur no page faults
// (§3.5): the entries under the moved range are stored, entries for
// blocks the file gained inside the range are added, and nothing else is
// touched. Only a change of shape — huge pages gained or lost, a file
// grown past the table's capacity — builds a new Mapping, which the
// caller uses instead of m; capacity then at least doubles, up to the
// requested length, so a file growing block by block rebuilds O(log)
// times; m itself is still brought up to date under the moved range,
// for accesses that already hold it, unless it has huge pages and the new
// table has not.
//
// The blocks a relink took out of a mapped file are discarded only once
// Remaps have covered the range they were moved out of, and a commit after
// that found no access in flight. K-Split assumes one Mapping per file
// range, which is what U-Split's mapping cache keeps: a second Mapping of
// a moved range that no Remap refreshed may translate to discarded blocks.
// A huge m that Remap replaced with a 4 KB table keeps the range's blocks
// until a later Remap covers it again.
func (fs *FS) Remap(m *Mapping, f *File, off, length int64, huge bool, from, n int64) (*Mapping, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.remapLocked(m, f, off, length, huge, from, n)
}

func (fs *FS) remapLocked(m *Mapping, f *File, off, length int64, huge bool, from, n int64) (*Mapping, error) {
	if off%sim.BlockSize != 0 || length <= 0 {
		return nil, vfs.ErrInval
	}
	if f.stale() {
		return nil, vfs.ErrClosed
	}
	// Clamp to the allocated end of the file.
	mapped := min(length, f.in.extents.End()*sim.BlockSize-off)
	if mapped <= 0 {
		return nil, vfs.ErrInval
	}
	// Huge pages need 2 MB alignment in both the file offset (virtual
	// side) and every physical run (physical side).
	pageSz := int64(sim.BlockSize)
	if huge = huge && fs.hugeBacked(f.in, off, mapped); huge {
		pageSz = HugePageSize
	}
	nPages := (mapped + pageSz - 1) / pageSz
	prev, old := m, int64(0) // the caller's table, and the bytes it maps
	if prev != nil {
		old = prev.length.Load()
	}
	if m == nil || m.pageSz != pageSz || nPages > int64(len(m.pages)) || m.faulted != nil {
		if m != nil {
			nPages = min(max(nPages, 2*int64(len(m.pages))), (length+pageSz-1)/pageSz)
		}
		m = fs.newTable(nPages)
		m.Ino, m.FileOff, m.Huge, m.pageSz = f.in.ino, off, huge, pageSz
	}
	// The moved range, then what the file grew by; entries before length.
	// Under a new table nothing moved: all of it is growth. The caller's
	// table, which accesses in flight may still translate through, is
	// refreshed under the moved range too, unless its pages are larger
	// than the new table's and so cannot say where the moved blocks went.
	refreshed := prev == nil || prev.pageSz <= pageSz
	ok := true
	switch {
	case m == prev:
		ok = m.fill(f.in, max(from, off), min(from+n, off+mapped)) && m.fill(f.in, off+old, off+mapped)
	case refreshed && prev != nil:
		ok = prev.fill(f.in, max(from, off), min(from+n, off+old)) && m.fill(f.in, off, off+mapped)
	default:
		ok = m.fill(f.in, off, off+mapped)
	}
	if !ok {
		return nil, vfs.WrapPath("mmap", f.path, vfs.ErrInval)
	}
	m.length.Store(mapped)
	// No table the caller holds translates the refreshed ranges to blocks
	// a relink took out of them (DESIGN.md, "Shard granularity").
	f.in.mapped = true
	if refreshed {
		fs.remapped(f.in, max(from, off)/sim.BlockSize, blocksUpTo(min(from+n, off+length)))
	}
	fs.remapped(f.in, (off+old)/sim.BlockSize, blocksUpTo(off+length))
	return m, nil
}

// newTable returns a Mapping of n pages with nothing mapped: a spare one
// (FS.tables) when there is one, with its page array if that has room.
// Caller holds fs.mu.
func (fs *FS) newTable(n int64) *Mapping {
	k := len(fs.tables)
	if k == 0 {
		return &Mapping{fs: fs, pages: make([]atomic.Int64, n)}
	}
	m := fs.tables[k-1]
	fs.tables[k-1] = nil
	fs.tables = fs.tables[:k-1]
	if int64(cap(m.pages)) >= n {
		m.pages = m.pages[:n]
	} else {
		m.pages = make([]atomic.Int64, n)
	}
	m.length.Store(0)
	return m
}

// blocksUpTo is the number of blocks that byte offset end reaches into.
func blocksUpTo(end int64) int64 { return (end + sim.BlockSize - 1) / sim.BlockSize }

// hugeBacked reports whether every 2 MB page of [off, off+length) is one
// physically contiguous, 2 MB-aligned run — fragmentation defeats a huge
// mapping.
func (fs *FS) hugeBacked(in *inode, off, length int64) bool {
	if off%HugePageSize != 0 || length%HugePageSize != 0 {
		return false
	}
	for cur := off; cur < off+length; cur += HugePageSize {
		devOff, contig, ok := translate(fs, in, cur/sim.BlockSize)
		if !ok || devOff%HugePageSize != 0 || contig*sim.BlockSize < HugePageSize {
			return false
		}
	}
	return true
}

// fill stores the page-table entries of the pages under file range
// [lo, hi) from the inode's extents; false if the range has a hole.
// Caller holds fs.mu.
func (m *Mapping) fill(in *inode, lo, hi int64) bool {
	for cur := lo - (lo-m.FileOff)%m.pageSz; cur < hi; {
		devOff, contig, ok := translate(m.fs, in, cur/sim.BlockSize)
		if !ok {
			return false
		}
		end := min(cur+contig*sim.BlockSize, hi)
		for ; cur < end; cur += m.pageSz {
			m.pages[(cur-m.FileOff)/m.pageSz].Store(devOff)
			devOff += m.pageSz
		}
	}
	return true
}

// Translate maps an offset within the mapped file range to a device
// offset and the contiguous length available there, looking no further
// ahead than want bytes. It charges the page fault on first touch for
// non-populated mappings, like any access through the mapping.
func (m *Mapping) Translate(fileOff, want int64) (devOff, contig int64, ok bool) {
	rel, length := fileOff-m.FileOff, m.length.Load()
	if rel < 0 || rel >= length {
		return 0, 0, false
	}
	pg := rel / m.pageSz
	if m.faulted != nil && !m.faulted[pg] {
		m.faulted[pg] = true
		cost := int64(sim.PageFault4KNs)
		if m.Huge {
			cost = sim.PageFault2MNs
		}
		m.fs.clk.Charge(sim.CatPageFault, cost)
	}
	devOff = m.pages[pg].Load() + rel%m.pageSz
	// Following pages extend the span while they are physically next.
	end := (pg + 1) * m.pageSz
	for end-rel < want && end < length && m.pages[end/m.pageSz].Load() == devOff+(end-rel) {
		end += m.pageSz
	}
	return devOff, min(end, length) - rel, true
}

// Length returns the bytes mapped from FileOff: the allocated part of the
// requested range, which grows when a Remap finds the file grown.
func (m *Mapping) Length() int64 { return m.length.Load() }

// PageSize returns the page size the mapping was granted (2 MB when Huge,
// 4 KB otherwise) — the unit of its DRAM page-table overhead.
func (m *Mapping) PageSize() int64 { return m.pageSz }

// TableBytes is that overhead: 8 bytes per mapped page.
func (m *Mapping) TableBytes() int64 { return (m.Length() + m.pageSz - 1) / m.pageSz * 8 }

// Load copies from the mapping into p using processor loads; no kernel
// involvement. Returns the bytes copied (short if the mapping ends). The
// access counts as in flight from before its first translation to after
// its last load, so no block it translated to is discarded under it.
func (m *Mapping) Load(p []byte, fileOff int64) int {
	m.fs.inflight.Add(1)
	n := 0
	for n < len(p) {
		devOff, contig, ok := m.Translate(fileOff+int64(n), int64(len(p)-n))
		if !ok {
			break
		}
		span := contig
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		m.fs.dev.ReadIntoUser(p[n:n+int(span)], devOff, sim.CatPMData)
		n += int(span)
	}
	m.fs.inflight.Add(-1) // not deferred: a defer costs this hot path more than the add
	return n
}

// StoreNT copies p into the mapping with non-temporal stores; durable
// only after the caller's Fence on the device (that is the mmap
// contract). No kernel involvement. In flight like Load.
//
// +persist:caller-fenced
func (m *Mapping) StoreNT(p []byte, fileOff int64) int {
	m.fs.inflight.Add(1)
	n := 0
	for n < len(p) {
		devOff, contig, ok := m.Translate(fileOff+int64(n), int64(len(p)-n))
		if !ok {
			break
		}
		span := contig
		if span > int64(len(p)-n) {
			span = int64(len(p) - n)
		}
		m.fs.dev.StoreNT(devOff, p[n:n+int(span)], sim.CatPMData)
		n += int(span)
	}
	m.fs.inflight.Add(-1)
	return n
}

// Fence orders previously issued stores; exposed so user-space writers
// can implement sync semantics without a syscall.
func (m *Mapping) Fence() { m.fs.dev.Fence() }

// Unmap charges the munmap cost that makes SplitFS unlink expensive
// (Table 6), and hands the page table back: a later commit that finds no
// access in flight makes it a spare for the next Mapping built. Until
// then it is left intact: a reader that raced the unmap and still holds
// the Mapping keeps addressing the same physical bytes (exactly the
// lazily-reclaimed-pages semantics of a real munmap racing a load). So
// whoever looks a Mapping up where an Unmap may take it from — a cache —
// must be in flight (BeginAccess) from before the lookup; the caller of
// Unmap uses the Mapping no more.
func (m *Mapping) Unmap() {
	fs := m.fs
	fs.clk.Charge(sim.CatKernelTrap, sim.MunmapPerMappingNs)
	if m.faulted != nil || cap(m.pages) > maxSpareTablePages {
		return
	}
	fs.mu.Lock()
	if len(fs.dropped)+len(fs.tables) < maxSpareTables {
		fs.dropped = append(fs.dropped, m)
	}
	fs.mu.Unlock()
}

// BeginAccess puts a lock-free access through Mappings in flight until
// EndAccess: from before the caller looks a Mapping up to after its last
// load or store through it. Neither the blocks a table translates to are
// discarded nor a table Unmap handed back reused while one is.
func (fs *FS) BeginAccess() { fs.inflight.Add(1) }

// EndAccess ends what BeginAccess began.
func (fs *FS) EndAccess() { fs.inflight.Add(-1) }
