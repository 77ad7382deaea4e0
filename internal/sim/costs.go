package sim

// This file is the cost ledger: every charge to a Clock names one Row, a
// calibrated cost with the category it is booked to, the layer that owns
// it, and the paper number (or the Izraelevitz et al. measurement
// reproduced in the paper's Table 2) that anchors it. Per-unit costs are
// in picoseconds so that all arithmetic stays in integers. `splitbench
// ledger` splits each cell's nanoseconds by row and layer.
//
// Anchors used for calibration:
//
//	Table 2: seq read latency 169 ns, rand read latency 305 ns,
//	         store+flush+fence 91 ns, read BW 39.4 GB/s, write BW 13.9 GB/s.
//	§1:      writing 4 KB to PM takes 671 ns.
//	Table 1: append 4 KB totals — ext4 DAX 9002 ns, PMFS 4150 ns,
//	         NOVA-strict 3021 ns, SplitFS-strict 1251 ns, SplitFS-POSIX 1160 ns.
//	Table 6: syscall latencies (µs) — e.g. ext4 DAX fsync 28.98, read 5.04.
const (
	// CacheLine is the persistence granularity of the simulated PM device.
	CacheLine = 64

	// BlockSize is the file-system block size used by every file system in
	// this repository, matching the 4 KB pages of the paper's testbed.
	BlockSize = 4096
)

// Layer is the part of the stack that owns a ledger row.
type Layer int

const (
	LayerDevice  Layer = iota // the PM device: loads, stores, flushes, fences
	LayerJournal              // jbd2 handles
	LayerKSplit               // ext4 DAX, SplitFS's kernel component
	LayerUSplit               // SplitFS's user-space library
	LayerOpLog                // the operation logs' tail bumps and checksums
	LayerEngine               // the baseline engines: NOVA, PMFS, Strata
	NumLayers
)

var layerNames = [NumLayers]string{"device", "journal", "K-Split", "U-Split", "op-log", "engine"}

func (l Layer) String() string { return layerNames[l] }

// Row is one line of the cost ledger.
type Row struct {
	Name      string
	Layer     Layer
	Cat       Category // what its charges are booked to; catOpen: the caller's choice
	Fixed     int64    // ns a charge
	PsPerUnit int64    // a byte, line or page, rounded up to whole ns a charge
	Cite      string
	slot      int // its first total in a Clock
}

// OpenRow is a device row whose caller names the category: only ChargeAs takes it.
type OpenRow struct{ *Row }

// Cost returns the nanoseconds of one charge of n units.
func (r *Row) Cost(n int64) int64 { return r.Fixed + (max(n, 0)*r.PsPerUnit+999)/1000 }

// catOpen marks an OpenRow's category; maxSlots bounds a Clock's totals.
const catOpen, maxSlots = Category(-1), 128

var (
	rows    []*Row
	nSlots  int
	slotRow [maxSlots]*Row
	slotCat [maxSlots]Category
)

func row(name string, l Layer, cat Category, fixed, psPerUnit int64, cite string) *Row {
	r := &Row{Name: name, Layer: l, Cat: cat, Fixed: fixed, PsPerUnit: psPerUnit, Cite: cite, slot: nSlots}
	cats := []Category{cat}
	if cat == catOpen {
		cats = Categories()
	}
	for _, c := range cats {
		slotRow[nSlots], slotCat[nSlots] = r, c
		nSlots++
	}
	rows = append(rows, r)
	return r
}

// Rows returns the ledger's rows in declaration order.
func Rows() []*Row { return append([]*Row(nil), rows...) }

// The device (internal/pmem), calibrated against Table 2's and §1's anchors.
var (
	// PMReadSeq and PMReadRand are a device read: the sequential (169 ns)
	// or random (305 ns) latency of Table 2, plus the inverse read
	// bandwidth (39.4 GB/s => ~25 ps/byte).
	PMReadSeq  = OpenRow{row("pm-read-seq", LayerDevice, catOpen, 169, 25, "Table 2")}
	PMReadRand = OpenRow{row("pm-read-rand", LayerDevice, catOpen, 305, 25, "Table 2")}
	// PMUserReadSeq and PMUserReadRand move file data between PM and a user
	// buffer on the read path (load + memcpy), calibrated so a 16 KB read
	// costs ~4 µs as in Table 6 (SplitFS read 4.53 µs including
	// bookkeeping, ext4 DAX 5.04 µs including the trap).
	PMUserReadSeq  = OpenRow{row("pm-user-read-seq", LayerDevice, catOpen, 169, 235, "Table 6 read")}
	PMUserReadRand = OpenRow{row("pm-user-read-rand", LayerDevice, catOpen, 305, 235, "Table 6 read")}
	// PMStoreNT is a non-temporal store sequence: a 55 ns startup plus the
	// inverse effective single-stream store bandwidth (~6.9 GB/s; the
	// 13.9 GB/s in Table 2 is the multi-stream peak).
	PMStoreNT = OpenRow{row("pm-store-nt", LayerDevice, catOpen, 55, 144, "Table 2, §1")}
	// PMStore is a cached (temporal) store; cheap because it hits the
	// cache hierarchy.
	PMStore = OpenRow{row("pm-store", LayerDevice, catOpen, 0, 10, "Table 2")}
	// PMFlush is a clwb of each dirty cache line.
	PMFlush = OpenRow{row("pm-flush", LayerDevice, catOpen, 0, 60e3, "Table 2")}
	// PMFence is an sfence draining the write-pending queue.
	PMFence = row("pm-fence", LayerDevice, CatFence, 26, 0, "Table 2")
	// CacheRead reads metadata resident in the CPU cache at cached-store
	// speed (the journal re-reading buffers it is about to log).
	CacheRead = row("cache-read", LayerDevice, CatCPU, 0, 10, "Table 2")
)

// K-Split: ext4 DAX, in its own stacks and under U-Split.
var (
	// KernelTrap is the round-trip cost of entering and leaving the
	// kernel for a system call (syscall + VFS dispatch). Calibrated
	// against Table 6's close(2) on ext4 DAX (0.34 µs), which is little
	// more than a bare trap.
	KernelTrap = row("kernel-trap", LayerKSplit, CatKernelTrap, 300, 0, "Table 6 close")
	// PageFault4K is a minor page fault on a 4 KB DAX page, and
	// PageFault2M on a 2 MB huge page. The paper (§4) observes that page
	// faults dominate open() when MAP_POPULATE is used and that losing
	// huge pages halves read performance.
	PageFault4K = row("page-fault-4k", LayerKSplit, CatPageFault, 0, 2200e3, "§4")
	PageFault2M = row("page-fault-2m", LayerKSplit, CatPageFault, 0, 3600e3, "§4")
	// Mmap is the fixed cost of an mmap system call excluding population
	// faults.
	Mmap = row("mmap", LayerKSplit, CatCPU, 1400, 0, "§4")
	// Munmap tears down one cached mapping at unlink time; this is why
	// unlink is the most expensive SplitFS call in Table 6 (14.6 µs vs
	// 8.6 µs on ext4 DAX).
	Munmap = row("munmap", LayerKSplit, CatKernelTrap, 5500, 0, "Table 6 unlink")
	// AllocExtent is one block-allocator extent search (bitmap scan, group
	// selection); ext4's allocator is charged this per allocation on the
	// append path.
	AllocExtent = row("alloc-extent", LayerKSplit, CatAlloc, 900, 0, "Table 1 ext4 DAX")
	// Ext4JournalHandle is jbd2 handle start/stop, get-write-access
	// bookkeeping and dirty-buffer tracking, paid once per system call
	// that opens a handle — per ioctl on the relink path, however many
	// moves its vector holds — as on the ext4 DAX write path. Together
	// with allocation, extent updates, the DAX iomap work and the trap it
	// reproduces the 8331 ns software overhead of an ext4 DAX append
	// (Table 1).
	Ext4JournalHandle = row("jbd2-handle", LayerJournal, CatJournal, 1500, 0, "Table 1 ext4 DAX")
	// Ext4ExtentUpdate updates the extent tree and inode.
	Ext4ExtentUpdate = row("ext4-extent-update", LayerKSplit, CatCPU, 500, 0, "Table 1 ext4 DAX")
	// Ext4DaxIomap is the per-call dax_iomap write machinery (block
	// mapping, radix lookups). With the trap and the data write it
	// reproduces the ~2.5x gap between ext4 DAX and SplitFS on sequential
	// 4 KB overwrites (Fig 3).
	Ext4DaxIomap = row("ext4-dax-iomap", LayerKSplit, CatCPU, 1500, 0, "Fig 3")
	// Ext4ReadPath is the per-call read-path overhead (iomap +
	// generic_file_read bookkeeping); with the trap and the 16 KB data
	// copy it reproduces the 5.04 µs ext4 DAX read in Table 6.
	Ext4ReadPath = row("ext4-read-path", LayerKSplit, CatCPU, 450, 0, "Table 6 read")
	// Ext4AllocWritePath is the extra cost of an allocating write
	// (unwritten-extent conversion and new-block zeroing). Together with
	// the trap, iomap, allocator, handle, and extent costs it reproduces
	// the 9002 ns ext4 DAX append in Table 1.
	Ext4AllocWritePath = row("ext4-alloc-write", LayerKSplit, CatCPU, 2850, 0, "Table 1 ext4 DAX")
	// Ext4Fsync is the fsync-path overhead beyond the journal block IO
	// (jbd2 commit-thread handoff and waits); Table 6 reports 28.98 µs for
	// ext4 DAX fsync.
	Ext4Fsync = row("ext4-fsync", LayerKSplit, CatCPU, 23000, 0, "Table 6 fsync")
	// Ext4UnlinkPath is the unlink-path overhead beyond directory and
	// bitmap updates (orphan-list handling); Table 6 reports 8.60 µs.
	Ext4UnlinkPath = row("ext4-unlink", LayerKSplit, CatCPU, 4200, 0, "Table 6 unlink")
	// Ext4DirOp is a directory entry search/insert.
	Ext4DirOp = row("ext4-dir-op", LayerKSplit, CatCPU, 1100, 0, "Table 6")
)

// U-Split and its operation log (internal/splitfs, internal/metalog).
var (
	// USplitOpen and USplitClose are U-Split's extra work on open (stat +
	// attribute caching, §3.5) and close, on top of the kernel call;
	// Table 6 shows open 1.82–2.09 µs vs 1.54 µs and close 0.69–0.78 µs
	// vs 0.34 µs.
	USplitOpen  = row("usplit-open", LayerUSplit, CatCPU, 350, 0, "Table 6 open")
	USplitClose = row("usplit-close", LayerUSplit, CatCPU, 350, 0, "Table 6 close")
	// USplitBookkeep is U-Split's per-operation user-space bookkeeping:
	// fd-table lookup, permission check against the cached attributes, and
	// collection-of-mmaps lookup. Calibrated against the SplitFS-POSIX
	// append total of 1160 ns (Table 1): 671 ns data + ~490 ns software.
	USplitBookkeep = row("usplit-bookkeep", LayerUSplit, CatCPU, 430, 0, "Table 1")
	// USplitStaging reserves space in a staging file (lock-free queue
	// operation + staged-extent index insert).
	USplitStaging = row("usplit-staging", LayerUSplit, CatCPU, 60, 0, "Table 1")
	// USplitFsync is fsync's fixed user-space cost before any relink work
	// (resolving the open-file description and setting up the batch); the
	// relink work itself is charged where it runs.
	USplitFsync = row("usplit-fsync", LayerUSplit, CatCPU, 45, 0, "Table 6 fsync")
	// DRAMCopy is a DRAM-to-DRAM memcpy (~20 GB/s effective), used by the
	// staging-in-DRAM ablation (§4).
	DRAMCopy = row("dram-copy", LayerUSplit, CatCPU, 0, 50, "§4")
	// OpLogCAS is an uncontended compare-and-swap (the op-log tail bump).
	OpLogCAS = row("oplog-cas", LayerOpLog, CatCPU, 18, 0, "§3.3")
	// LogChecksum is the 4-byte transactional checksum over a 64 B log
	// entry (§3.3), in every log built on internal/metalog.
	LogChecksum = row("log-checksum", LayerOpLog, CatCPU, 11, 0, "§3.3")
)

// The baseline engines (internal/logfs, internal/strata). Their trap,
// allocator and read path cost what ext4 DAX's do, booked to the engine.
var (
	EngineTrap     = row("engine-trap", LayerEngine, CatKernelTrap, KernelTrap.Fixed, 0, "= kernel-trap")
	EngineAlloc    = row("engine-alloc-extent", LayerEngine, CatAlloc, AllocExtent.Fixed, 0, "= alloc-extent")
	EngineReadPath = row("engine-read-path", LayerEngine, CatCPU, Ext4ReadPath.Fixed, 0, "= ext4-read-path")
	// PMFSJournal is PMFS's fine-grained per-operation metadata logging
	// cost; PMFS appends cost ~4150 ns total (Table 1) with in-place data.
	PMFSJournal = row("pmfs-journal", LayerEngine, CatOpLog, 1300, 0, "Table 1 PMFS")
	// PMFSWritePath is PMFS's non-journal write-path bookkeeping.
	PMFSWritePath = row("pmfs-write-path", LayerEngine, CatCPU, 980, 0, "Table 1 PMFS")
	// NovaLogEntry is NOVA's cost of composing one log entry in DRAM
	// before issuing the PM stores (radix-tree update, entry formatting).
	// NOVA-strict writes at least two cache lines and issues two fences per
	// operation (§3.3), which the NOVA implementation performs for real
	// against the device; this row covers only the CPU side.
	NovaLogEntry = row("nova-log-entry", LayerEngine, CatOpLog, 150, 0, "§3.3")
	// NovaCOW is the copy-on-write bookkeeping (new-block allocation and
	// old-block free) on NOVA-strict's data path.
	NovaCOW = row("nova-cow", LayerEngine, CatCPU, 520, 0, "Table 1 NOVA")
	// NovaWritePath is NOVA's remaining write-path bookkeeping; the sum
	// of trap + allocation + log entry + COW + data + two cache-line
	// persists reproduces the 3021 ns NOVA-strict append in Table 1.
	NovaWritePath = row("nova-write-path", LayerEngine, CatCPU, 300, 0, "Table 1 NOVA")
	// NovaRelaxedWritePath is NOVA-Relaxed's in-place write path: it
	// must "update the per-inode logical log entries on overwrites before
	// updating the data in-place", which the paper blames for
	// NOVA-Relaxed's worst-in-class 7.4x TPCC software overhead (§5.7).
	NovaRelaxedWritePath = row("nova-relaxed-write-path", LayerEngine, CatCPU, 2600, 0, "§5.7")
	// StrataLogAppend is Strata's LibFS per-write cost (lease check,
	// update-log header, DRAM index insert), StrataReadPath its per-read
	// cost (lease validation plus searching the update log before the
	// shared area), and StrataDigest the KernFS digest cost per block
	// copied from the private log into the shared area. Calibrated
	// against the absolute Strata throughputs in Table 7 (29.1-113.1
	// Kops/s on YCSB/LevelDB).
	StrataLogAppend = row("strata-log-append", LayerEngine, CatCPU, 2500, 0, "Table 7")
	StrataReadPath  = row("strata-read-path", LayerEngine, CatCPU, 3500, 0, "Table 7")
	StrataDigest    = row("strata-digest", LayerEngine, CatCPU, 800, 0, "Table 7")
)
