package splitfs

import (
	"cmp"
	"maps"
	"slices"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// syncFiles is fsync — "relink, then one journal commit" (§3.4) — and the
// one function that makes staged data durable for its own sake: for
// fsync's single file, for every open file (SyncAll) and for
// the log-full checkpoint. See DESIGN.md, "fsync and group commit".
//
// It runs every file's relink steps, each under only that file's lock,
// then ONE journal commit for all of them, then releases the consumed
// staging references and reclaims the staging files that leaves sealed
// and unreferenced, so they are unmapped and unlinked off the fsync hot
// path.
// All of it happens on the calling goroutine, files in inode order
// (duplicates dropped), so a single-threaded run produces a bit-identical
// persistence-event stream every time — the crash harness replays
// workloads by absolute event number. Concurrent fsyncs of distinct files run
// their steps in parallel and coalesce one layer down, in K-Split's group
// commit: whoever reaches CommitUpTo first commits the shared transaction
// for everyone who joined it. The stages name their event sources,
// SrcRelinkWorker and SrcReclaim, to every write they make or ask K-Split
// for, so coverage and per-source stats tell them from foreground stores
// exactly. The caller holds no file lock; the first error, in file order,
// is returned.
func (fs *FS) syncFiles(ofiles ...*ofile) error {
	if len(ofiles) == 0 {
		return nil
	}
	// A description's ino changes, under the table lock, when it is
	// recycled; one that has been since the caller found it sorts by the
	// file it serves now.
	fs.mu.RLock()
	slices.SortFunc(ofiles, func(a, b *ofile) int { return cmp.Compare(a.ino, b.ino) })
	fs.mu.RUnlock()
	ofiles = slices.Compact(ofiles)
	fs.clk.Charge(sim.USplitFsync)
	first := fs.relinkAndCommit(ofiles)
	fs.staging.reclaim()
	return first
}

// relinkAndCommit is syncFiles' relink stage, which releases the consumed
// staging references once the commit has made their relinks durable. It
// reports the first error, in file order.
func (fs *FS) relinkAndCommit(ofiles []*ofile) (first error) {
	var (
		maxTx uint64
		buf   [16]stagedRange // an fsync's pieces, as a rule: no garbage
	)
	released := buf[:0]
	for _, of := range ofiles {
		of.mu.Lock()
		txid, rel, err := fs.relinkStepsLocked(pmem.SrcRelinkWorker, of, released)
		of.mu.Unlock()
		released = rel
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		maxTx = max(maxTx, txid)
	}
	// One commit covers every file: transaction ids are monotone and every
	// successful step set joined a transaction with id <= maxTx. A file
	// with nothing staged reported the running transaction, so a relink of
	// it that a concurrent fsync has applied but not yet committed is
	// covered too.
	if maxTx > 0 {
		fs.kfs.CommitUpTo(pmem.SrcRelinkWorker, maxTx)
	}
	fs.staging.release(released)
	return first
}

// openFiles snapshots the open-file table (in map order: syncFiles sorts).
func (fs *FS) openFiles() []*ofile {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return slices.Collect(maps.Values(fs.files))
}

// SyncAll relinks every open file's staged data (shutdown path, and the
// multi-file fsync the server and the crash runner issue): all files
// share a single journal commit. It is also the barrier callers take for
// "all I did so far is durable" (the resumable client empties its replay
// log on it), and syncFiles commits only on behalf of the files it is given: in
// POSIX mode a mkdir, rename or unlink issued while no file is open
// would otherwise stay in K-Split's running transaction. Sync and strict
// made each of those durable with its redo record; the commit is free
// when syncFiles' own left nothing behind.
func (fs *FS) SyncAll() error {
	if err := fs.syncFiles(fs.openFiles()...); err != nil {
		return err
	}
	if fs.mode == POSIX {
		fs.kfs.CommitMeta()
	}
	fs.dev.Fence()
	return nil
}

// checkpoint makes everything the operation log describes durable through
// K-Split, then zeroes the log for reuse (§3.3: "If it becomes full, we
// checkpoint the state of the application by calling relink() on all the
// open files that have data in staging files. We then zero out the log and
// reuse it."). It runs where an operation reserves its log room
// (lockStrict, lockMeta): under wmu, which keeps every other logging
// operation out, and before the operation has taken any file lock or
// staged anything — so each entry in the log describes a completed
// operation.
//
// Commit first, zero second. The log holds two kinds of record. Strict
// mode's write entries are covered once every open file has relinked and
// the relinks have committed — syncFiles; visiting the files with nothing
// staged matters too, because a concurrent fsync (which takes no wmu) may
// have applied such a file's relink without having committed it yet.
// Metadata records (both modes) are covered once K-Split's running
// transaction, which holds their operations, has committed — and syncFiles
// commits only on behalf of the files it is given, so with no file open it
// commits nothing: hence the CommitMeta, which is free when syncFiles'
// commit left nothing behind. Zeroing a log whose operations are not yet
// in the journal loses acknowledged operations at the next crash. A
// commit cannot fail (journal credits, DESIGN.md); a relink can, and then
// the checkpoint fails with it and the log stays whole.
func (fs *FS) checkpoint() error {
	if fs.mode == Strict {
		if err := fs.syncFiles(fs.openFiles()...); err != nil {
			return err
		}
	}
	fs.kfs.CommitMeta()
	fs.olog.Reset()
	fs.stats.checkpoints.Add(1)
	return nil
}

// rewindLog starts the op log's next lap at its first slot when every
// record on it is covered: K-Split holds what each describes, committed,
// so recovery would skip it. A log that fsyncs keep covering then backs
// one lap's frames, not its region, and never fills (DESIGN.md, "A
// covered log rewinds"). File.Sync calls it once its relinks have
// committed; wmu keeps every appender out. (The log-full checkpoint
// already holds wmu, so syncFiles cannot take it.)
//
// Covered means: no transaction runs and no batch handle is open, so every
// metadata operation logged so far has committed; and in strict mode no
// open file holds staged data, whose write entries are the data's only
// record.
func (fs *FS) rewindLog() {
	if fs.olog == nil {
		return
	}
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	if fs.olog.Used() == 0 || fs.mode == Strict && fs.anyStaged() || !fs.kfs.Idle() {
		return
	}
	if fs.olog.Rewind() {
		fs.stats.rewinds.Add(1)
	}
}

// anyStaged reports whether an open file holds staged data, walking the
// open-file table in place. A description out of the table — its file
// unlinked or renamed over — holds data no path reaches after a crash.
func (fs *FS) anyStaged() bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for _, of := range fs.files {
		of.mu.RLock()
		staged := len(of.staged) > 0
		of.mu.RUnlock()
		if staged {
			return true
		}
	}
	return false
}
