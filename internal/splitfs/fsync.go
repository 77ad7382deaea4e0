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
// fsync's single file, for every open file (SyncAll, GroupSync) and for
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
// for everyone who joined it. Events issued here are tagged
// SrcRelinkWorker (and SrcReclaim) so the crash harness's coverage stats
// can tell the relink and reclaim stages from foreground stores. The
// caller holds no file lock; the first error, in file order, is returned.
func (fs *FS) syncFiles(ofiles ...*ofile) error {
	if len(ofiles) == 0 {
		return nil
	}
	slices.SortFunc(ofiles, func(a, b *ofile) int { return cmp.Compare(a.ino, b.ino) })
	ofiles = slices.Compact(ofiles)
	fs.clk.Charge(sim.CatCPU, sim.USplitFsyncNs)
	var (
		first     error
		committed bool
	)
	fs.dev.WithEventSource(pmem.SrcRelinkWorker, func() { first, committed = fs.relinkAndCommit(ofiles) })
	if committed {
		fs.dev.WithEventSource(pmem.SrcReclaim, func() { fs.staging.reclaim() })
	}
	return first
}

// relinkAndCommit is syncFiles' relink stage. It reports the first error,
// in file order, and whether the commit went through — only then are the
// consumed staging references released, and only then does syncFiles
// reclaim.
func (fs *FS) relinkAndCommit(ofiles []*ofile) (first error, committed bool) {
	var (
		maxTx uint64
		buf   [16]stagedRange // an fsync's pieces, as a rule: no garbage
	)
	released := buf[:0]
	for _, of := range ofiles {
		of.mu.Lock()
		txid, rel, err := fs.relinkStepsLocked(of, released)
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
		if err := fs.kfs.CommitUpTo(maxTx); err != nil {
			// The staging references are deliberately NOT released: the
			// popped overlay is gone from the volatile view (pre-existing
			// fsync-failure semantics), but strict-mode recovery can still
			// replay the writes from the op log as long as the staged bytes
			// stay allocated — releasing them could reclaim (unlink) the
			// staging file and turn a reported error into silent data loss
			// after a crash.
			if first == nil {
				first = err
			}
			return first, false
		}
	}
	fs.staging.release(released)
	return first, true
}

// openFiles snapshots the open-file table (in map order: syncFiles sorts).
func (fs *FS) openFiles() []*ofile {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return slices.Collect(maps.Values(fs.files))
}

// SyncAll relinks every open file's staged data (shutdown path, and the
// multi-file fsync of the group-commit benchmark): all files share a
// single journal commit. It is also the barrier callers take for "all I
// did so far is durable" (the resumable client empties its replay log on
// it), and syncFiles commits only on behalf of the files it is given: in
// POSIX mode a mkdir, rename or unlink issued while no file is open
// would otherwise stay in K-Split's running transaction. Sync and strict
// made each of those durable with its redo record; the commit is free
// when syncFiles' own left nothing behind.
func (fs *FS) SyncAll() error {
	if err := fs.syncFiles(fs.openFiles()...); err != nil {
		return err
	}
	if fs.mode == POSIX {
		if err := fs.kfs.CommitMeta(); err != nil {
			return err
		}
	}
	fs.dev.Fence()
	return nil
}

// GroupSync makes the staged data of every listed file durable through
// one group-committed relink batch — the batched fsync the paper's
// jbd2-style group commit enables. Duplicate and nil handles are
// tolerated.
func (fs *FS) GroupSync(files ...*File) error {
	ofiles := make([]*ofile, 0, len(files))
	for _, f := range files {
		if f != nil && !f.closed.Load() {
			ofiles = append(ofiles, f.of)
		}
	}
	fs.bookkeep()
	return fs.syncFiles(ofiles...)
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
// in the journal loses acknowledged operations at the next crash.
func (fs *FS) checkpoint() error {
	if fs.mode == Strict {
		if err := fs.syncFiles(fs.openFiles()...); err != nil {
			return err
		}
	}
	if err := fs.kfs.CommitMeta(); err != nil {
		return err
	}
	fs.olog.Reset()
	fs.stats.checkpoints.Add(1)
	return nil
}
