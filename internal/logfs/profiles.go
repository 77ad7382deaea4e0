package logfs

import (
	"splitfs/internal/metalog"
	"splitfs/internal/sim"
)

// The engine's named instances: the two kernel baselines of the SplitFS
// paper's evaluation (§5.1) and the engine with no costs added.

// NovaStrict is NOVA (Xu & Swanson, FAST '16) with copy-on-write data
// updates: atomic + synchronous operations, compared against
// SplitFS-strict. "NOVA writes at least two cache lines and issues two
// fences" per operation (§3.3): a log entry plus a persistent tail.
var NovaStrict = Profile{
	Name:         "nova-strict",
	FenceMode:    metalog.EntryPlusTail,
	PerOpCPU:     sim.NovaLogEntryNs,
	WritePathCPU: sim.NovaWritePathNs,
	ReadPathCPU:  sim.Ext4ReadPathNs, // read paths are comparably lean
	COW:          true,
	SyncData:     true,
	KernelFS:     true,
}

// NovaRelaxed is NOVA with in-place data updates: synchronous but not
// atomic data, compared against SplitFS-sync. In-place updates still
// rewrite per-inode log entries first (§5.7), making the relaxed write
// path more expensive per operation than the COW bookkeeping it saves.
var NovaRelaxed = Profile{
	Name:         "nova-relaxed",
	FenceMode:    metalog.EntryPlusTail,
	PerOpCPU:     sim.NovaLogEntryNs,
	WritePathCPU: sim.NovaRelaxedWritePathNs,
	ReadPathCPU:  sim.Ext4ReadPathNs,
	SyncData:     true,
	KernelFS:     true,
}

// PMFS (Dulloor et al., EuroSys '14) writes data in place, synchronously,
// under fine-grained single-fence metadata journaling: the paper's "sync"
// guarantee level — durable when the call returns, data operations not
// atomic (Table 3).
var PMFS = Profile{
	Name:         "pmfs",
	FenceMode:    metalog.SingleFence,
	PerOpCPU:     sim.PMFSJournalNs,
	WritePathCPU: sim.PMFSWritePathNs,
	ReadPathCPU:  sim.Ext4ReadPathNs,
	SyncData:     true,
	KernelFS:     true,
}

// Bare is the engine alone: asynchronous in-place data, no per-operation
// CPU or trap charges. It is the differential suite's ninth backend.
var Bare = Profile{Name: "logfs"}
