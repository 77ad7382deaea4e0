package logfs

import (
	"splitfs/internal/metalog"
	"splitfs/internal/sim"
)

// The engine's named instances: the two kernel baselines of the SplitFS
// paper's evaluation (§5.1). Their data path (COW) is not set here:
// internal/stack sets it from each kind's row of Table 3
// (stack.LogProfile).

// NovaStrict is NOVA (Xu & Swanson, FAST '16) in its strict mode,
// compared against SplitFS-strict. "NOVA writes at least two cache
// lines and issues two fences" per operation (§3.3): a log entry plus a
// persistent tail.
var NovaStrict = Profile{
	Name:         "nova-strict",
	FenceMode:    metalog.EntryPlusTail,
	PerOpCPU:     sim.NovaLogEntry,
	WritePathCPU: sim.NovaWritePath,
	ReadPathCPU:  sim.EngineReadPath, // read paths are comparably lean
}

// NovaRelaxed is NOVA in its relaxed mode, compared against
// SplitFS-sync. Its in-place updates still rewrite per-inode log entries
// first (§5.7), making the relaxed write path more expensive per
// operation than the COW bookkeeping it saves.
var NovaRelaxed = Profile{
	Name:         "nova-relaxed",
	FenceMode:    metalog.EntryPlusTail,
	PerOpCPU:     sim.NovaLogEntry,
	WritePathCPU: sim.NovaRelaxedWritePath,
	ReadPathCPU:  sim.EngineReadPath,
}

// PMFS (Dulloor et al., EuroSys '14) journals metadata at fine grain,
// one fence per record; it is compared against SplitFS-sync.
var PMFS = Profile{
	Name:         "pmfs",
	FenceMode:    metalog.SingleFence,
	PerOpCPU:     sim.PMFSJournal,
	WritePathCPU: sim.PMFSWritePath,
	ReadPathCPU:  sim.EngineReadPath,
}
