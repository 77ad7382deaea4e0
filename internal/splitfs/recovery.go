package splitfs

import (
	"encoding/binary"
	"fmt"

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
// (§5.3).
func RecoverFS(kfs *ext4dax.FS, cfg Config) (*FS, *RecoveryReport, error) {
	fs := newFS(kfs, cfg)
	report := &RecoveryReport{}

	if fs.mode != POSIX {
		start := fs.clk.Now()
		olog, entries, err := loadOpLog(fs)
		if err != nil {
			return nil, nil, fmt.Errorf("splitfs recovery: %w", err)
		}
		if olog != nil {
			fs.olog = olog
			if err := fs.replayEntries(entries, report); err != nil {
				return nil, nil, err
			}
			// Commit first, zero second: what replay redid sits in K-Split's
			// running transaction, and a second crash must find either the
			// log or its effects.
			if err := kfs.CommitMeta(); err != nil {
				return nil, nil, err
			}
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
	// data was replayed above); remove them and build a fresh pool.
	if ents, err := kfs.ReadDir(stagingDir); err == nil {
		for _, e := range ents {
			_ = kfs.Unlink(stagingDir + "/" + e.Name)
		}
	}
	var err error
	fs.staging, err = newStagingPool(fs)
	if err != nil {
		return nil, nil, err
	}
	// The fresh operation log and staging files (and the removal of the
	// crashed instance's staging files) must be durable before the
	// recovered instance accepts writes: a second crash would otherwise
	// find log entries pointing into staging files whose creation never
	// committed. This is also what makes recovery idempotent under
	// double crashes — the double-crash campaign sweeps RecoverFS itself.
	if err := kfs.CommitMeta(); err != nil {
		return nil, nil, err
	}
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

// replayEntries applies the operation log in log order (§3.3 recovery:
// non-zero checksum-valid entries are replayed; replay is idempotent).
// Log order is the order the operations took effect in — every logging
// operation holds wmu from its K-Split call to its append — so a staged
// write finds the file a redone create made, and an unlink redone after it
// finds the write applied.
func (fs *FS) replayEntries(entries [][]byte, report *RecoveryReport) error {
	report.Entries = len(entries)
	// The stamp is the sequence number of the last metadata operation in
	// the journal K-Split recovered (stampedMeta); it advances with every
	// record redone, in the record's own transaction, so a crash inside
	// this loop resumes where it left off.
	stamp := fs.kfs.Stamp(int(fs.mode))
	for _, e := range entries {
		switch {
		case len(e) >= 41 && e[0] == opEntryWrite:
			ino := uint64(binary.LittleEndian.Uint32(e[1:]))
			stagingIno := uint64(binary.LittleEndian.Uint32(e[5:]))
			fileOff := int64(binary.LittleEndian.Uint64(e[9:]))
			length := int64(binary.LittleEndian.Uint32(e[17:]))
			stagingOff := int64(binary.LittleEndian.Uint64(e[21:]))
			seq := binary.LittleEndian.Uint64(e[29:])
			dataSum := binary.LittleEndian.Uint32(e[37:])
			fs.opSeq = max(fs.opSeq, seq)
			applied, err := fs.replayWrite(ino, fileOff, length, stagingIno, stagingOff, seq, dataSum)
			if err != nil {
				return err
			}
			if applied {
				report.Replayed++
			} else {
				report.Skipped++
			}
		case len(e) >= 2 && e[0] == opEntryMeta && (e[1] == metaOpen || e[1] == metaClose):
			// An existing file was opened or closed: no metadata changed.
		case len(e) >= 2 && e[0] == opEntryMeta:
			r, err := decodeMetaRecord(e)
			if err != nil {
				return err
			}
			fs.opSeq = max(fs.opSeq, r.seq)
			if r.seq <= stamp {
				report.MetaSkipped++
				continue
			}
			if err := fs.replayMeta(r); err != nil {
				return fmt.Errorf("splitfs recovery: redo of %q (seq %d) %s %s: %w", r.kind, r.seq, r.path, r.path2, err)
			}
			stamp = r.seq
			report.MetaReplayed++
		default:
			return fmt.Errorf("splitfs recovery: unknown or short log entry (%d bytes: % x...)", len(e), e[:min(len(e), 2)])
		}
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
		touched, err = r.path, fs.kfs.Recreate(r.path, r.ino, false)
	case metaMkdir:
		err = fs.kfs.Recreate(r.path, r.ino, true)
	case metaUnlink:
		err = fs.kfs.Unlink(r.path)
	case metaRmdir:
		err = fs.kfs.Rmdir(r.path)
	case metaRename:
		err = fs.kfs.Rename(r.path, r.path2)
	case metaTruncate:
		var ok bool
		if touched, ok = fs.kfs.PathByIno(r.ino); !ok {
			err = fmt.Errorf("inode %d: %w", r.ino, vfs.ErrNotExist)
		}
	}
	if err == nil && touched != "" {
		err = fs.replayInFile(touched, r)
	}
	if err != nil {
		return err
	}
	b.SetStamp(int(fs.mode), r.seq)
	return nil
}

// replayInFile is the part of a redone create or truncate that goes
// through a handle: the new size, and in strict mode the watermark.
func (fs *FS) replayInFile(path string, r metaRecord) error {
	f, err := fs.kfs.OpenFile(path, vfs.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if r.kind == metaTruncate {
		if err := f.Truncate(r.size); err != nil {
			return err
		}
	}
	if fs.mode == Strict {
		f.(*ext4dax.File).SetUserWatermark(r.seq)
	}
	return nil
}

// replayWrite re-applies one staged write. An entry is live only when
// (a) its sequence number is above the target inode's relink watermark —
// the watermark commits atomically with each relink, so covered entries
// are already durable in the target — (b) its staging range is still
// allocated (punched ranges also mean a committed relink), and (c) the
// staged bytes match the entry's data checksum — entry and data share
// one fence, so an entry that survived a crash intact may point at torn
// data, and replaying it would materialize a half-written operation.
// Live entries are copied into the target; replay is idempotent.
func (fs *FS) replayWrite(ino uint64, fileOff, length int64, stagingIno uint64, stagingOff int64, seq uint64, dataSum uint32) (bool, error) {
	stagingPath, ok := fs.kfs.PathByIno(stagingIno)
	if !ok {
		return false, nil // staging file gone: entry predates a checkpoint
	}
	targetPath, ok := fs.kfs.PathByIno(ino)
	if !ok {
		return false, nil // target unlinked after the write was logged
	}
	if tf, err := fs.kfs.OpenFile(targetPath, vfs.O_RDONLY, 0); err == nil {
		wm := tf.(*ext4dax.File).UserWatermark()
		tf.Close()
		if seq <= wm {
			return false, nil // a committed relink already covers this entry
		}
	}
	sf, err := fs.kfs.OpenFile(stagingPath, vfs.O_RDONLY, 0)
	if err != nil {
		return false, err
	}
	defer sf.Close()
	skf := sf.(*ext4dax.File)
	if !skf.RangeAllocated(stagingOff, length) {
		return false, nil // relink committed before the crash
	}
	buf := make([]byte, length)
	if _, err := sf.ReadAt(buf, stagingOff); err != nil {
		return false, err
	}
	if stagedSum(buf) != dataSum {
		// The shared fence never completed: the entry line survived but
		// the staged data tore. The operation never completed, so it must
		// not be replayed (all-or-nothing).
		return false, nil
	}
	tf, err := fs.kfs.OpenFile(targetPath, vfs.O_RDWR, 0)
	if err != nil {
		return false, err
	}
	defer tf.Close()
	if _, err := tf.WriteAt(buf, fileOff); err != nil {
		return false, err
	}
	if err := tf.Sync(); err != nil {
		return false, err
	}
	return true, nil
}
