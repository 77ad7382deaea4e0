package splitfs

import (
	"encoding/binary"
	"fmt"

	"splitfs/internal/ext4dax"
	"splitfs/internal/vfs"
)

// RecoveryReport summarizes a strict-mode crash recovery (§5.3).
type RecoveryReport struct {
	// Entries is the number of valid operation-log entries scanned.
	Entries int
	// Replayed is the number of staged writes re-applied (entries whose
	// staging range was still allocated, meaning the relink had not
	// committed before the crash).
	Replayed int
	// Skipped entries were already covered by a committed relink.
	Skipped int
	// ReplayNs is the simulated time the log replay took.
	ReplayNs int64
}

// RecoverFS performs crash recovery over a crashed device that has been
// re-mounted at the ext4 DAX level (journal replay), then rebuilds a
// U-Split instance and replays the operation log. POSIX and sync modes
// need nothing beyond ext4 DAX recovery (§5.3).
func RecoverFS(kfs *ext4dax.FS, cfg Config) (*FS, *RecoveryReport, error) {
	fs := newFS(kfs, cfg)
	report := &RecoveryReport{}

	if fs.mode == Strict {
		start := fs.clk.Now()
		olog, entries, err := loadOpLog(fs)
		if err != nil {
			return nil, nil, fmt.Errorf("splitfs recovery: %w", err)
		}
		if olog != nil {
			if err := fs.replayEntries(entries, report); err != nil {
				return nil, nil, err
			}
			olog.Reset()
			fs.olog = olog
		}
		report.ReplayNs = fs.clk.Now() - start
	}
	// Continue the operation sequence past every watermark ever issued,
	// so stale inode watermarks can never mask future entries.
	if wm := kfs.MaxUserWatermark(); wm > fs.opSeq {
		fs.opSeq = wm
	}
	if fs.olog == nil && fs.mode == Strict {
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

// replayEntries applies the operation log (§3.3 recovery: non-zero
// checksum-valid entries are replayed; replay is idempotent).
func (fs *FS) replayEntries(entries [][]byte, report *RecoveryReport) error {
	report.Entries = len(entries)
	for _, e := range entries {
		if len(e) == 0 {
			continue
		}
		switch e[0] {
		case opEntryWrite:
			if len(e) < 41 {
				return fmt.Errorf("splitfs recovery: short write entry (%d bytes)", len(e))
			}
			ino := uint64(binary.LittleEndian.Uint32(e[1:]))
			stagingIno := uint64(binary.LittleEndian.Uint32(e[5:]))
			fileOff := int64(binary.LittleEndian.Uint64(e[9:]))
			length := int64(binary.LittleEndian.Uint32(e[17:]))
			stagingOff := int64(binary.LittleEndian.Uint64(e[21:]))
			seq := binary.LittleEndian.Uint64(e[29:])
			dataSum := binary.LittleEndian.Uint32(e[37:])
			if seq > fs.opSeq {
				fs.opSeq = seq
			}
			applied, err := fs.replayWrite(ino, fileOff, length, stagingIno, stagingOff, seq, dataSum)
			if err != nil {
				return err
			}
			if applied {
				report.Replayed++
			} else {
				report.Skipped++
			}
		case opEntryMeta:
			// Metadata operations were journaled by K-Split; nothing to do.
		default:
			return fmt.Errorf("splitfs recovery: unknown log entry op %d", e[0])
		}
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
