package harness

import (
	"fmt"

	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

// The groupcommit experiment measures what jbd2-style group commit buys
// on the fsync path: N files with staged appends are made durable either
// by N independent fsyncs (each relink batch commits its own journal
// transaction) or by one batched fsync (GroupSync: all batches share a single transaction and
// fence pair). Reported as journal commits per 1k appends and pmem
// fences per fsync — batched must be strictly lower on both.

func init() {
	register("groupcommit", "Group-committed fsync: journal commits and fences, batched vs serial", groupCommitExp)
}

// GroupCommitResult is what one configuration's durability phase cost.
type GroupCommitResult struct {
	Commits, Fences int64
}

// RunGroupCommit appends appendsPerFile 4K blocks to each of files
// distinct files on a fresh instance of kind, then makes them durable
// serially (fsync per file) or batched (one GroupSync), counting the
// journal commits and device fences of the durability phase only.
func RunGroupCommit(kind string, files, appendsPerFile, blockBytes int, batched bool) (GroupCommitResult, error) {
	e, err := paperStack(kind, appDev)
	if err != nil {
		return GroupCommitResult{}, err
	}
	sfs, ok := e.FS.(*splitfs.FS)
	if !ok {
		return GroupCommitResult{}, fmt.Errorf("groupcommit: %s is not a splitfs instance", kind)
	}
	handles := make([]*splitfs.File, files)
	blk := make([]byte, blockBytes)
	for i := range handles {
		f, err := vfs.Create(e.FS, fmt.Sprintf("/gc%02d", i))
		if err != nil {
			return GroupCommitResult{}, err
		}
		handles[i] = f.(*splitfs.File)
		for a := 0; a < appendsPerFile; a++ {
			if _, err := f.Write(blk); err != nil {
				return GroupCommitResult{}, err
			}
		}
	}
	before := e.Counters()
	if batched {
		if err := sfs.GroupSync(handles...); err != nil {
			return GroupCommitResult{}, err
		}
	} else {
		for _, f := range handles {
			if err := f.Sync(); err != nil {
				return GroupCommitResult{}, err
			}
		}
	}
	after := e.Counters()
	return GroupCommitResult{after.Commits - before.Commits, after.Dev.Fences - before.Dev.Fences}, nil
}

// groupCommitExp renders the batched-vs-serial comparison for the POSIX
// and strict modes and attaches its machine-readable metrics.
func groupCommitExp() (*Table, error) {
	const (
		files          = 12
		appendsPerFile = 16
		blockBytes     = 4096
	)
	t := &Table{
		ID:    "groupcommit",
		Title: "Group-committed fsync (one journal commit for many files)",
		Note: fmt.Sprintf("%d files x %d 4K appends; serial = fsync per file, batched = one GroupSync "+
			"(concurrent fsyncs coalesce the same way via CommitUpTo)", files, appendsPerFile),
		Headers: []string{"File system", "Mode", "Journal commits", "Commits/1k appends", "Fences", "Fences/fsync"},
	}
	for _, kind := range []string{"splitfs-posix", "splitfs-strict"} {
		for _, batched := range []bool{false, true} {
			r, err := RunGroupCommit(kind, files, appendsPerFile, blockBytes, batched)
			if err != nil {
				return nil, fmt.Errorf("%s batched=%v: %w", kind, batched, err)
			}
			mode := "serial"
			if batched {
				mode = "batched"
			}
			// Commits per 1k appends, and fences per file made durable
			// (a batch counts as one request per file, so the two
			// configurations compare directly).
			per1k, perFsync := float64(r.Commits)*1000/(files*appendsPerFile), float64(r.Fences)/files
			t.Rows = append(t.Rows, []string{kind, mode, fmt.Sprint(r.Commits), f2(per1k), fmt.Sprint(r.Fences), f2(perFsync)})
			t.AddMetric(kind+"_"+mode+"_commits_per_1k_appends", per1k, "commits/1k-appends")
			t.AddMetric(kind+"_"+mode+"_fences_per_fsync", perFsync, "fences/fsync")
		}
	}
	return t, nil
}
