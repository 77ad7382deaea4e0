package sim

// This file is the single home of every calibrated cost constant in the
// reproduction. Each constant cites the paper number (or the Izraelevitz
// et al. measurement reproduced in the paper's Table 2) that anchors it.
//
// Bandwidth-style costs are expressed in picoseconds per byte so that all
// arithmetic stays in integers; ChargeBytes converts to nanoseconds.
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

	// PMSeqReadLatencyNs is the device latency of a sequential read
	// (Table 2: 169 ns).
	PMSeqReadLatencyNs = 169
	// PMRandReadLatencyNs is the device latency of a random read
	// (Table 2: 305 ns).
	PMRandReadLatencyNs = 305

	// PMReadPsPerByte is the inverse device read bandwidth
	// (Table 2: 39.4 GB/s => ~25 ps/byte).
	PMReadPsPerByte = 25

	// PMUserCopyPsPerByte is the end-to-end cost of moving file data
	// between PM and a user buffer on the read path (load + memcpy),
	// calibrated so a 16 KB read costs ~4 µs as in Table 6 (SplitFS read
	// 4.53 µs including bookkeeping, ext4 DAX 5.04 µs including the trap).
	PMUserCopyPsPerByte = 235

	// PMWriteLatencyNs is the fixed startup cost of a non-temporal store
	// sequence. Together with PMWritePsPerByte and FenceNs it is calibrated
	// against two anchors: store+flush+fence of one cache line = 91 ns
	// (Table 2) and a 4 KB non-temporal write + fence = 671 ns (§1).
	PMWriteLatencyNs = 55
	// PMWritePsPerByte is the inverse effective single-stream store
	// bandwidth (~6.9 GB/s; the 13.9 GB/s in Table 2 is the multi-stream
	// peak).
	PMWritePsPerByte = 144
	// FenceNs is the cost of an sfence draining the write-pending queue.
	FenceNs = 26
	// FlushLineNs is the cost of a clwb of one dirty cache line.
	FlushLineNs = 60
	// StorePsPerByte is the CPU-side cost of a cached (temporal) store;
	// cheap because it hits the cache hierarchy.
	StorePsPerByte = 10

	// DRAMCopyPsPerByte is the cost of DRAM-to-DRAM memcpy (~20 GB/s
	// effective), used for staging-in-DRAM ablations and app-side copies.
	DRAMCopyPsPerByte = 50

	// KernelTrapNs is the round-trip cost of entering and leaving the
	// kernel for a system call (syscall + VFS dispatch). Calibrated
	// against Table 6's close(2) on ext4 DAX (0.34 µs), which is little
	// more than a bare trap.
	KernelTrapNs = 300

	// PageFault4KNs is the cost of handling a minor page fault on a 4 KB
	// DAX page, and PageFault2MNs on a 2 MB huge page. The paper (§4)
	// observes that page faults dominate open() when MAP_POPULATE is used
	// and that losing huge pages halves read performance.
	PageFault4KNs = 2200
	PageFault2MNs = 3600

	// MmapSyscallNs is the fixed cost of an mmap system call excluding
	// population faults.
	MmapSyscallNs = 1400
	// MunmapPerMappingNs is the cost of tearing down one cached mapping at
	// unlink time; this is why unlink is the most expensive SplitFS call in
	// Table 6 (14.6 µs vs 8.6 µs on ext4 DAX).
	MunmapPerMappingNs = 5500

	// USplitOpenNs and USplitCloseNs are U-Split's extra work on open
	// (stat + attribute caching, §3.5) and close, on top of the kernel
	// call; Table 6 shows open 1.82–2.09 µs vs 1.54 µs and close
	// 0.69–0.78 µs vs 0.34 µs.
	USplitOpenNs  = 350
	USplitCloseNs = 350

	// AllocExtentNs is the CPU cost of one block-allocator extent search
	// (bitmap scan, group selection); ext4's allocator is charged this per
	// allocation on the append path.
	AllocExtentNs = 900

	// Ext4JournalHandleNs is the cost of jbd2 handle start/stop,
	// get-write-access bookkeeping and dirty-buffer tracking, paid once per
	// system call that opens a handle — per ioctl on the relink path,
	// however many moves its vector holds — as on the ext4 DAX write path.
	// Together with allocation, extent updates, the DAX iomap work and the
	// trap it reproduces the 8331 ns software overhead of an ext4 DAX
	// append (Table 1).
	Ext4JournalHandleNs = 1500
	// Ext4ExtentUpdateNs is the cost of updating the extent tree and inode.
	Ext4ExtentUpdateNs = 500
	// Ext4DaxIomapNs is the per-call cost of the dax_iomap write machinery
	// (block mapping, radix lookups). With the trap and the data write it
	// reproduces the ~2.5x gap between ext4 DAX and SplitFS on sequential
	// 4 KB overwrites (Fig 3).
	Ext4DaxIomapNs = 1500
	// Ext4ReadPathNs is the per-call read-path overhead (iomap +
	// generic_file_read bookkeeping); with the trap and the 16 KB data
	// copy it reproduces the 5.04 µs ext4 DAX read in Table 6.
	Ext4ReadPathNs = 450
	// Ext4AllocWritePathNs is the extra cost of an allocating write
	// (unwritten-extent conversion and new-block zeroing). Together with
	// the trap, iomap, allocator, handle, and extent costs it reproduces
	// the 9002 ns ext4 DAX append in Table 1.
	Ext4AllocWritePathNs = 2850
	// Ext4FsyncNs is the fsync-path overhead beyond the journal block IO
	// (jbd2 commit-thread handoff and waits); Table 6 reports 28.98 µs for
	// ext4 DAX fsync.
	Ext4FsyncNs = 23000
	// Ext4UnlinkPathNs is the unlink-path overhead beyond directory and
	// bitmap updates (orphan-list handling); Table 6 reports 8.60 µs.
	Ext4UnlinkPathNs = 4200
	// Ext4DirOpNs is the CPU cost of a directory entry search/insert.
	Ext4DirOpNs = 1100

	// PMFSJournalNs is PMFS's fine-grained per-operation metadata logging
	// cost; PMFS appends cost ~4150 ns total (Table 1) with in-place data.
	PMFSJournalNs = 1300
	// PMFSWritePathNs is PMFS's non-journal write-path bookkeeping.
	PMFSWritePathNs = 980

	// NovaLogEntryNs is NOVA's cost of composing one log entry in DRAM
	// before issuing the PM stores (radix-tree update, entry formatting).
	// NOVA-strict writes at least two cache lines and issues two fences per
	// operation (§3.3), which the NOVA implementation performs for real
	// against the device; this constant covers only the CPU side.
	NovaLogEntryNs = 150
	// NovaCOWNs is the copy-on-write bookkeeping (new-block allocation and
	// old-block free) on NOVA-strict's data path.
	NovaCOWNs = 520
	// NovaWritePathNs is NOVA's remaining write-path bookkeeping; the sum
	// of trap + allocation + log entry + COW + data + two cache-line
	// persists reproduces the 3021 ns NOVA-strict append in Table 1.
	NovaWritePathNs = 300
	// NovaRelaxedWritePathNs is NOVA-Relaxed's in-place write path: it
	// must "update the per-inode logical log entries on overwrites before
	// updating the data in-place", which the paper blames for
	// NOVA-Relaxed's worst-in-class 7.4x TPCC software overhead (§5.7).
	NovaRelaxedWritePathNs = 2600

	// USplitBookkeepNs is U-Split's per-operation user-space bookkeeping:
	// fd-table lookup, permission check against the cached attributes, and
	// collection-of-mmaps lookup. Calibrated against the SplitFS-POSIX
	// append total of 1160 ns (Table 1): 671 ns data + ~490 ns software.
	USplitBookkeepNs = 430
	// USplitStagingNs is the cost of reserving space in a staging file
	// (lock-free queue operation + staged-extent index insert).
	USplitStagingNs = 60
	// USplitFsyncNs is fsync's fixed user-space cost before any relink
	// work (resolving the open-file description and setting up the batch);
	// the relink work itself is charged where it runs.
	USplitFsyncNs = 45

	// StrataLogAppendNs is Strata's LibFS per-write cost (lease check,
	// update-log header, DRAM index insert), StrataReadPathNs its
	// per-read cost (lease validation plus searching the update log
	// before the shared area), and StrataDigestPerBlockNs the KernFS
	// digest cost per block copied from the private log into the shared
	// area. Calibrated against the absolute Strata throughputs in
	// Table 7 (29.1-113.1 Kops/s on YCSB/LevelDB).
	StrataLogAppendNs      = 2500
	StrataReadPathNs       = 3500
	StrataDigestPerBlockNs = 800

	// CASNs is an uncontended compare-and-swap (the op-log tail bump).
	CASNs = 18
	// ChecksumPerLogEntryNs is the cost of the 4-byte transactional
	// checksum over a 64 B log entry (§3.3).
	ChecksumPerLogEntryNs = 11
)

// ChargeBytes converts a picoseconds-per-byte rate into nanoseconds for n
// bytes, rounding up so tiny transfers are never free.
func ChargeBytes(n int, psPerByte int64) int64 {
	if n <= 0 {
		return 0
	}
	return (int64(n)*psPerByte + 999) / 1000
}
