package splitfs

import (
	"errors"
	"fmt"
	"strings"

	"splitfs/internal/ext4dax"
	"splitfs/internal/vfs"
)

// RecoveryReport summarizes a crash recovery's operation-log replay (§5.3).
type RecoveryReport struct {
	// Entries is the number of valid operation-log entries scanned.
	Entries int
	// Replayed is the number of staged writes re-applied (entries whose
	// staging range was still allocated, meaning the relink had not
	// committed before the crash).
	Replayed int
	// Skipped entries were already covered by a committed relink.
	Skipped int
	// MetaReplayed is the number of metadata operations redone: their
	// records were in the log, their effects not in the journal K-Split
	// recovered.
	MetaReplayed int
	// MetaSkipped metadata records were at or below the committed stamp.
	MetaSkipped int
	// ReplayNs is the simulated time the log replay took.
	ReplayNs int64
}

// RecoverFS performs crash recovery over a crashed device that has been
// re-mounted at the ext4 DAX level (journal replay), then rebuilds a
// U-Split instance and replays the operation log: in sync and strict mode
// the metadata operations K-Split had not committed, in strict mode the
// staged writes too. POSIX mode needs nothing beyond ext4 DAX recovery
// (§5.3). The recovered instance starts with no staging file: the first
// reservation creates one, as a reservation on an exhausted pool does.
func RecoverFS(kfs *ext4dax.FS, cfg Config) (*FS, *RecoveryReport, error) {
	fs := newFS(kfs, cfg)
	report := &RecoveryReport{}

	if fs.mode != POSIX {
		start := fs.clk.Now()
		replay := fs.newLogReplay(report)
		olog, err := loadOpLog(fs, replay.entry)
		if err == nil {
			err = replay.flush()
		}
		if err != nil {
			replay.closeAll()
			return nil, nil, err
		}
		if olog != nil {
			fs.olog = olog
			// Commit first, zero second: what replay redid sits in K-Split's
			// running transaction, and a second crash must find either the
			// log or its effects.
			kfs.CommitMeta()
			olog.Reset()
		}
		report.ReplayNs = fs.clk.Now() - start
	}
	if fs.olog == nil && fs.mode != POSIX {
		var err error
		fs.olog, err = newOpLog(fs)
		if err != nil {
			return nil, nil, err
		}
	}
	// Old staging files from the crashed instance are obsolete (any live
	// data was replayed above); remove them. Only this mode's: another
	// instance on the K-Split may still have to replay out of its own.
	if ents, err := kfs.ReadDir(stagingDir); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name, stagePrefix(fs.mode)) {
				_ = kfs.Unlink(stagingDir + "/" + e.Name)
			}
		}
	}
	var err error
	if fs.staging, err = newStagingPool(fs, 0); err != nil {
		return nil, nil, err
	}
	// The fresh operation log, the staging directory and the removal of
	// the crashed instance's staging files are durable before the
	// recovered instance accepts writes, so a second crash recovers from
	// this point — the double-crash campaign sweeps RecoverFS itself.
	kfs.CommitMeta()
	return fs, report, nil
}

// Check is the structural check of the image under an instance, recovered
// or live: K-Split's own (ext4dax.FS.Check), and no metadata record in the
// op log above its journal stamp — RecoverFS leaves none at all, and every
// operation logged since raised the stamp before it appended.
func (fs *FS) Check() error {
	if _, err := fs.kfs.Check(); err != nil || fs.olog == nil {
		return err
	}
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	stamp := fs.kfs.Stamp(int(fs.mode))
	for _, e := range fs.olog.Records() {
		if len(e) < 2 || e[0] != opEntryMeta || e[1] == metaOpen || e[1] == metaClose {
			continue
		}
		if r, err := decodeMetaRecord(e); err != nil {
			return err
		} else if r.seq > stamp {
			return fmt.Errorf("splitfs: op-log record %q (seq %d) sits above its log's stamp, %d", r.kind, r.seq, stamp)
		}
	}
	return nil
}

// logReplay applies the operation log in log order, an entry at a time as
// loadOpLog scans it (§3.3 recovery: non-zero checksum-valid entries are
// replayed; replay is idempotent). Log order is the order the operations
// took effect in — every logging operation holds wmu from its K-Split call
// to its append — so a staged write finds the file a redone create made,
// and an unlink redone after it finds the write applied.
//
// Staged writes are gathered per target into runs and applied together
// (flush) before the next metadata record that is redone, and at the end:
// each file is resolved to a path and opened once, and a piece that
// continues the last one in both the target and the same staging file
// extends it, so a run of appends is one copy. Writes to different files
// commute and one file's pieces keep log order, so the result is the
// log's. Nothing here commits: RecoverFS's one commit makes the replay
// durable, and until it the log is intact, so a crash inside replay
// replays again.
type logReplay struct {
	fs     *FS
	report *RecoveryReport
	// stamp is the sequence number of the last metadata operation in the
	// journal K-Split recovered (stampedMeta); it advances with every
	// record redone, in the record's own transaction, so a crash inside
	// replay resumes where it left off.
	stamp uint64
	// paths resolves inode numbers, found or not, until the namespace
	// changes: a metadata record is redone.
	paths  map[uint64]string
	files  map[uint64]*ext4dax.File // targets and staging files opened for the pending runs
	opened []*ext4dax.File          // the same handles, in the order they were opened
	runs   []writeRun               // in the order their first entries were logged
	byIno  map[uint64]int           // target inode → index in runs
	buf    []byte
}

// writeRun is one target file's pending pieces.
type writeRun struct {
	tf     *ext4dax.File
	pieces []writePiece
	seq    uint64 // the last entry's sequence number
}

// writePiece is a contiguous range to copy from a staging file into the
// target.
type writePiece struct {
	sf             *ext4dax.File
	fileOff, sfOff int64
	n              int64
}

// replayCopyBytes bounds the buffer a piece is copied through.
const replayCopyBytes = 1 << 20

func (fs *FS) newLogReplay(report *RecoveryReport) *logReplay {
	return &logReplay{fs: fs, report: report, stamp: fs.kfs.Stamp(int(fs.mode)),
		paths: map[uint64]string{}, files: map[uint64]*ext4dax.File{}, byIno: map[uint64]int{}}
}

// entry replays one log entry.
func (r *logReplay) entry(e []byte) error {
	fs, report := r.fs, r.report
	report.Entries++
	switch {
	case len(e) >= writeEntryBytes && e[0] == opEntryWrite:
		w := decodeWriteEntry(e)
		fs.opSeq = max(fs.opSeq, w.seq)
		live, err := r.replayWrite(w)
		if err != nil {
			return err
		}
		if live {
			report.Replayed++
		} else {
			report.Skipped++
		}
	case len(e) >= 2 && e[0] == opEntryMeta && (e[1] == metaOpen || e[1] == metaClose):
		// An existing file was opened or closed: no metadata changed.
	case len(e) >= 2 && e[0] == opEntryMeta:
		m, err := decodeMetaRecord(e)
		if err != nil {
			return err
		}
		fs.opSeq = max(fs.opSeq, m.seq)
		if m.seq <= r.stamp {
			report.MetaSkipped++
			return nil
		}
		// The writes logged before the record took effect before it.
		if err := r.flush(); err != nil {
			return err
		}
		if err := fs.replayMeta(m); err != nil {
			return fmt.Errorf("splitfs recovery: redo of %q (seq %d) %s %s: %w", m.kind, m.seq, m.path, m.path2, err)
		}
		clear(r.paths) // the namespace changed
		r.stamp = m.seq
		report.MetaReplayed++
	default:
		return fmt.Errorf("splitfs recovery: unknown or short log entry (%d bytes: % x...)", len(e), e[:min(len(e), 2)])
	}
	return nil
}

// replayMeta redoes one metadata operation the journal did not hold,
// through the K-Split call the operation made — except that a create and
// a mkdir get the inode number the log says they were given (Recreate):
// later records name files by inode, the staged writes among them, and the
// allocator owes a remounted file system no particular number. Like the
// operation itself (stampedMeta) it stamps its sequence number in the same
// transaction, and it moves a created or truncated file's watermark as the
// operation did (OpenFile), so that entries the operation masked stay
// masked when a second recovery skips this record.
func (fs *FS) replayMeta(r metaRecord) error {
	b := fs.kfs.BeginBatch()
	defer b.End()
	var (
		err     error
		touched string // the file whose size and watermark the operation set
	)
	switch r.kind {
	case metaCreate:
		touched, err = r.path, fs.kfs.Recreate(b, r.path, r.ino, false)
	case metaMkdir:
		err = fs.kfs.Recreate(b, r.path, r.ino, true)
	case metaUnlink:
		_, err = fs.kfs.UnlinkIno(b, r.path)
	case metaRmdir:
		err = fs.kfs.RmdirIn(b, r.path)
	case metaRename:
		_, _, err = fs.kfs.RenameReplacing(b, r.path, r.path2)
	case metaTruncate:
		var ok bool
		if touched, ok = fs.kfs.PathByIno(r.ino); !ok {
			err = fmt.Errorf("inode %d: %w", r.ino, vfs.ErrNotExist)
		}
	}
	if err == nil && touched != "" {
		err = fs.replayInFile(b, touched, r)
	}
	if err != nil {
		return err
	}
	b.SetStamp(int(fs.mode), r.seq)
	return nil
}

// replayInFile is the part of a redone create or truncate that goes
// through a handle, under replayMeta's b: the new size, and in strict mode
// the watermark.
func (fs *FS) replayInFile(b *ext4dax.Batch, path string, r metaRecord) error {
	f, err := fs.kfs.OpenFile(path, vfs.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	kf := f.(*ext4dax.File)
	if r.kind == metaTruncate {
		if err := kf.TruncateIn(b, r.size); err != nil {
			return err
		}
	}
	if fs.mode == Strict {
		kf.SetUserWatermark(b, r.seq)
	}
	return nil
}

// path resolves an inode to a path, "" when no directory names it.
func (r *logReplay) path(ino uint64) string {
	p, ok := r.paths[ino]
	if !ok {
		p, _ = r.fs.kfs.PathByIno(ino)
		r.paths[ino] = p
	}
	return p
}

// open returns the handle the pending runs hold on a file.
func (r *logReplay) open(ino uint64, path string, flag int) (*ext4dax.File, error) {
	if f := r.files[ino]; f != nil {
		return f, nil
	}
	f, err := r.fs.kfs.OpenFile(path, flag, 0)
	if err != nil {
		return nil, err
	}
	kf := f.(*ext4dax.File)
	r.files[ino] = kf
	r.opened = append(r.opened, kf)
	return kf, nil
}

// replayWrite queues one staged write if it is live: only when (a) its
// sequence number is above the target inode's relink watermark — the
// watermark commits with each relink and each replayed run (flush), so
// covered entries are already durable in the target — and (b) its staging
// range is still allocated (punched ranges also mean a committed relink).
// An entry that survived the crash names staged data that did too:
// stagePiece fenced the data before it stored the entry.
//
// An entry names one incarnation of an inode number. A number freed and
// taken again names something else now, and whatever took it, in any
// instance's mode, starts at K-Split's highest watermark, which masks the
// old entries. A directory's watermark is never read, because opening it
// for writing fails: an entry whose number names one is skipped.
func (r *logReplay) replayWrite(w writeEntry) (bool, error) {
	stagingPath := r.path(w.stagingIno)
	if stagingPath == "" {
		return false, nil // staging file gone: entry predates a checkpoint
	}
	targetPath := r.path(w.ino)
	if targetPath == "" {
		return false, nil // target unlinked after the write was logged
	}
	tf, err := r.open(w.ino, targetPath, vfs.O_RDWR)
	if errors.Is(err, vfs.ErrIsDir) {
		return false, nil // the number names a directory made after the write
	}
	if err != nil {
		return false, err
	}
	if w.seq <= tf.UserWatermark() {
		return false, nil // a committed relink already covers this entry
	}
	sf, err := r.open(w.stagingIno, stagingPath, vfs.O_RDONLY)
	if err != nil {
		return false, err
	}
	if !sf.RangeAllocated(w.stagingOff, w.length) {
		return false, nil // relink committed before the crash
	}
	i, ok := r.byIno[w.ino]
	if !ok {
		i = len(r.runs)
		r.byIno[w.ino] = i
		r.runs = append(r.runs, writeRun{tf: tf})
	}
	run := &r.runs[i]
	run.seq = w.seq
	if k := len(run.pieces) - 1; k >= 0 {
		if p := &run.pieces[k]; p.sf == sf && p.fileOff+p.n == w.fileOff && p.sfOff+p.n == w.stagingOff {
			p.n += w.length
			return true, nil
		}
	}
	run.pieces = append(run.pieces, writePiece{sf: sf, fileOff: w.fileOff, sfOff: w.stagingOff, n: w.length})
	return true, nil
}

// flush copies every pending piece into its target and moves the target's
// watermark past the run, as a relink does: a crash while RecoverFS zeroes
// the log can leave a prefix of it valid, and replaying the prefix again
// over the later writes it covered would roll them back. The watermark
// goes into the running transaction, and the commit that makes it durable
// fences the copies before its commit record. Then flush closes the
// handles.
func (r *logReplay) flush() error {
	for _, run := range r.runs {
		for _, p := range run.pieces {
			if err := r.copyPiece(run.tf, p); err != nil {
				return err
			}
		}
		run.tf.SetUserWatermark(nil, run.seq)
	}
	return r.closeAll()
}

// copyPiece copies one piece through a buffer of at most replayCopyBytes.
func (r *logReplay) copyPiece(tf *ext4dax.File, p writePiece) error {
	for done := int64(0); done < p.n; {
		k := min(p.n-done, replayCopyBytes)
		if int64(cap(r.buf)) < k {
			r.buf = make([]byte, k)
		}
		buf := r.buf[:k]
		if _, err := p.sf.ReadAt(buf, p.sfOff+done); err != nil {
			return err
		}
		if _, err := tf.WriteAt(buf, p.fileOff+done); err != nil {
			return err
		}
		done += k
	}
	return nil
}

// closeAll drops the pending runs and closes the handles they held.
func (r *logReplay) closeAll() error {
	var err error
	for _, f := range r.opened {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	clear(r.files)
	clear(r.byIno)
	r.opened, r.runs = r.opened[:0], r.runs[:0]
	return err
}
