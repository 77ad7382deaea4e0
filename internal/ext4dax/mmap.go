package ext4dax

import (
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// mappedRun is one contiguous piece of a memory mapping.
type mappedRun struct {
	fileOff int64 // offset within the mapped file
	devOff  int64 // device byte offset
	length  int64
}

// Mapping is a DAX memory mapping: a direct window onto the file's PM
// extents. Loads and stores through a Mapping cost no kernel trap — this
// is the mechanism U-Split uses to serve data operations in user space.
//
// A Mapping remains valid after Relink moves its physical blocks to
// another file; it keeps addressing the same physical data,
// which is the property the paper's relink depends on to avoid page
// faults (§3.5).
type Mapping struct {
	fs      *FS
	Ino     uint64
	FileOff int64
	Length  int64
	Huge    bool // backed by 2 MB pages
	runs    []mappedRun

	faulted []bool // per-page soft-fault state when not pre-populated
	pageSz  int64
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
	return fs.mmapLocked(f, off, length, opts, true)
}

// MmapQuiet rebuilds a mapping with no syscall, fault, or population
// charges and all pages pre-faulted. It models the paper's modified
// relink ioctl, which updates existing memory mappings in place so that
// post-relink accesses incur no page faults (§3.5).
func (fs *FS) MmapQuiet(f *File, off, length int64, huge bool) (*Mapping, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mmapLocked(f, off, length, MmapOptions{Populate: true, Huge: huge}, false)
}

func (fs *FS) mmapLocked(f *File, off, length int64, opts MmapOptions, charge bool) (*Mapping, error) {
	if off%sim.BlockSize != 0 || length <= 0 {
		return nil, vfs.ErrInval
	}
	// Clamp to the allocated end of the file.
	if allocEnd := fileBlocks(f.in) * sim.BlockSize; off+length > allocEnd {
		length = allocEnd - off
	}
	if length <= 0 {
		return nil, vfs.ErrInval
	}
	m := &Mapping{fs: fs, Ino: f.in.ino, FileOff: off, Length: length}
	// Collect the physical runs covering the range.
	cur := off
	for cur < off+length {
		logical := cur / sim.BlockSize
		devOff, contig, ok := translate(fs, f.in, logical)
		if !ok {
			return nil, vfs.WrapPath("mmap", f.path, vfs.ErrInval)
		}
		span := contig * sim.BlockSize
		if rem := off + length - cur; span > rem {
			span = rem
		}
		m.runs = append(m.runs, mappedRun{fileOff: cur, devOff: devOff, length: span})
		cur += span
	}
	// Huge pages need 2 MB alignment in both the file offset (virtual
	// side) and every physical run (physical side).
	m.Huge = opts.Huge && off%HugePageSize == 0 && length%HugePageSize == 0
	if m.Huge {
		for _, r := range m.runs {
			if r.devOff%HugePageSize != 0 || r.length%HugePageSize != 0 {
				m.Huge = false // fragmentation defeated the huge mapping
				break
			}
		}
	}
	m.pageSz = sim.BlockSize
	faultCost := int64(sim.PageFault4KNs)
	if m.Huge {
		m.pageSz = HugePageSize
		faultCost = sim.PageFault2MNs
	}
	nPages := (length + m.pageSz - 1) / m.pageSz
	switch {
	case opts.Populate && charge:
		fs.clk.Charge(sim.CatPageFault, nPages*faultCost)
	case opts.Populate:
		// Quiet rebuild: pages considered faulted, nothing charged.
	default:
		m.faulted = make([]bool, nPages)
	}
	return m, nil
}

// translate maps an offset within the mapped file range to a device
// offset and the contiguous length available there. It charges the page
// fault on first touch for non-populated mappings.
func (m *Mapping) translate(fileOff int64) (devOff, contig int64, ok bool) {
	if fileOff < m.FileOff || fileOff >= m.FileOff+m.Length {
		return 0, 0, false
	}
	if m.faulted != nil {
		pg := (fileOff - m.FileOff) / m.pageSz
		if !m.faulted[pg] {
			m.faulted[pg] = true
			cost := int64(sim.PageFault4KNs)
			if m.Huge {
				cost = sim.PageFault2MNs
			}
			m.fs.clk.Charge(sim.CatPageFault, cost)
		}
	}
	for _, r := range m.runs {
		if fileOff >= r.fileOff && fileOff < r.fileOff+r.length {
			d := fileOff - r.fileOff
			return r.devOff + d, r.length - d, true
		}
	}
	return 0, 0, false
}

// Translate maps an offset within the mapped range to its device offset
// and the contiguous length available there; it charges first-touch page
// faults like any access through the mapping.
func (m *Mapping) Translate(fileOff int64) (devOff, contig int64, ok bool) {
	return m.translate(fileOff)
}

// PageSize returns the page size the mapping was granted (2 MB when Huge,
// 4 KB otherwise) — the unit of its DRAM page-table overhead.
func (m *Mapping) PageSize() int64 { return m.pageSz }

// Load copies from the mapping into p using processor loads; no kernel
// involvement. Returns the bytes copied (short if the mapping ends).
func (m *Mapping) Load(p []byte, fileOff int64) int {
	n := 0
	for n < len(p) {
		devOff, contig, ok := m.translate(fileOff + int64(n))
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
	return n
}

// StoreNT copies p into the mapping with non-temporal stores; durable
// only after the caller's Fence on the device (that is the mmap
// contract). No kernel involvement.
//
// +persist:caller-fenced
func (m *Mapping) StoreNT(p []byte, fileOff int64) int {
	n := 0
	for n < len(p) {
		devOff, contig, ok := m.translate(fileOff + int64(n))
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
	return n
}

// Fence orders previously issued stores; exposed so user-space writers
// can implement sync semantics without a syscall.
func (m *Mapping) Fence() { m.fs.dev.Fence() }

// Unmap charges the munmap cost that makes SplitFS unlink expensive
// (Table 6). The translation runs are deliberately left intact: a reader
// that raced the unmap and still holds the Mapping keeps addressing the
// same physical bytes (exactly the lazily-reclaimed-pages semantics of a
// real munmap racing a load), and nulling them here would be a data race
// with such readers.
func (m *Mapping) Unmap() {
	m.fs.clk.Charge(sim.CatKernelTrap, sim.MunmapPerMappingNs)
}
