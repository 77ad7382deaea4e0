package splitfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"splitfs/internal/ext4dax"
	"splitfs/internal/metalog"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// The strict-mode operation log (§3.3, "Optimized logging"):
//
//   - logical redo records, one 64-byte cache line in the common case;
//   - a 4-byte transactional checksum inside the entry, so persisting and
//     validating needs ONE fence (metalog.SingleFence), versus NOVA's two;
//   - the tail lives only in DRAM and is advanced with compare-and-swap
//     (charged as CASNs); recovery identifies valid entries by scanning
//     the zeroed log and checking checksums;
//   - entries hold a logical pointer to the staging file holding the
//     data, never the data itself;
//   - when the log cannot take an operation's entries, U-Split
//     checkpoints — relinks every open file, then zeroes and reuses the
//     log — before the operation stages anything.

// Log entry opcodes.
const (
	opEntryWrite byte = 1 // staged append/overwrite
	opEntryMeta  byte = 3 // metadata operation (open/close/unlink/...)
)

// The log is a metalog running inside a pre-allocated K-Split file.
const oplogDir = "/.splitfs-oplog"

// newOpLog creates (or truncates) the instance's operation-log file,
// pre-allocates it, zeroes it, and maps it.
func newOpLog(fs *FS) (*metalog.Log, error) {
	if err := fs.kfs.Mkdir(oplogDir, 0700); err != nil {
		if _, statErr := fs.kfs.Stat(oplogDir); statErr != nil {
			return nil, err
		}
	}
	path := fmt.Sprintf("%s/log-%s", oplogDir, fs.mode)
	f, err := fs.kfs.OpenFile(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0600)
	if err != nil {
		return nil, err
	}
	kf := f.(*ext4dax.File)
	if err := kf.Preallocate(fs.cfg.OpLogBytes/sim.BlockSize, 0); err != nil {
		return nil, err
	}
	base, size, err := oplogRegion(fs, kf)
	if err != nil {
		return nil, err
	}
	return metalog.New(fs.dev, base, size, sim.CatOpLog), nil
}

// loadOpLog attaches to an existing operation-log file after a crash and
// returns the valid entries.
func loadOpLog(fs *FS) (*metalog.Log, [][]byte, error) {
	path := fmt.Sprintf("%s/log-%s", oplogDir, fs.mode)
	f, err := fs.kfs.OpenFile(path, vfs.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, nil, nil // no log: clean POSIX/sync shutdown
		}
		return nil, nil, err
	}
	kf := f.(*ext4dax.File)
	base, size, err := oplogRegion(fs, kf)
	if err != nil {
		return nil, nil, err
	}
	log, entries := metalog.Load(fs.dev, base, size, sim.CatOpLog)
	return log, entries, nil
}

// oplogRegion maps the log file and returns its largest leading
// physically contiguous device region.
func oplogRegion(fs *FS, kf *ext4dax.File) (base, size int64, err error) {
	m, err := fs.kfs.Mmap(kf, 0, fs.cfg.OpLogBytes, ext4dax.MmapOptions{Populate: true})
	if err != nil {
		return 0, 0, err
	}
	base, contig, ok := m.Translate(0)
	if !ok {
		return 0, 0, fmt.Errorf("splitfs: op log not mapped")
	}
	size = contig
	if size > fs.cfg.OpLogBytes {
		size = fs.cfg.OpLogBytes
	}
	if size < 64<<10 {
		return 0, 0, fmt.Errorf("splitfs: op log fragmented to %d bytes", size)
	}
	return base, size, nil
}

// encWriteEntry builds a 41-byte staged-write record — one cache line on
// the log including the metalog header (§3.3: "all common case
// operations can be logged using a single 64B log entry"). seq is the
// monotonically increasing operation sequence compared against the
// inode's relink watermark at recovery. dataSum is a checksum over the
// staged bytes the entry points at: entry and data share one fence, so a
// crash between the entry store and that fence can leave the entry line
// intact while the staged data tore — recovery must treat such an entry
// as never completed, which only a checksum over the data can establish.
// (Found by the persistence-event crash sweep; see DESIGN.md.)
func encWriteEntry(ino uint32, fileOff int64, length uint32, stagingIno uint32, stagingOff int64, seq uint64, dataSum uint32) []byte {
	b := make([]byte, 41)
	b[0] = opEntryWrite
	binary.LittleEndian.PutUint32(b[1:], ino)
	binary.LittleEndian.PutUint32(b[5:], stagingIno)
	binary.LittleEndian.PutUint64(b[9:], uint64(fileOff))
	binary.LittleEndian.PutUint32(b[17:], length)
	binary.LittleEndian.PutUint64(b[21:], uint64(stagingOff))
	binary.LittleEndian.PutUint64(b[29:], seq)
	binary.LittleEndian.PutUint32(b[37:], dataSum)
	return b
}

// stagedSum checksums staged data for a write entry: the log's own record
// checksum (FNV-1a folded to 32 bits, never zero, so "no checksum" can
// never validate) with no sequence number mixed in.
func stagedSum(p []byte) uint32 { return metalog.Checksum(0, p) }

// encMetaEntry records a metadata operation (open, close, unlink, ...).
// Replay treats them as no-ops — K-Split journaling already makes
// metadata atomic — but logging them preserves the paper's cost profile
// for strict mode (Table 6: strict open 2.09 µs vs POSIX 1.82 µs).
func encMetaEntry(kind byte, ino uint64) []byte {
	b := make([]byte, 17)
	b[0] = opEntryMeta
	b[1] = kind
	binary.LittleEndian.PutUint64(b[2:], ino)
	return b
}

// logEntryBytes is what any entry takes on the log: write and metadata
// records both pad to one cache line with the metalog header.
const logEntryBytes = sim.CacheLine

// reserveLog makes room for the n entries the calling operation is about
// to append, checkpointing the log if it is too full to take them (§3.3).
// Caller holds wmu — which serializes the log tail, standing in for the
// paper's CAS loop, so room found here stays until the caller unlocks —
// and no file lock: the checkpoint takes every open file's.
func (fs *FS) reserveLog(n int) error {
	need, log := int64(n)*logEntryBytes, fs.olog
	switch {
	case need > log.Capacity():
		return fmt.Errorf("splitfs: %d op-log entries exceed the %d-byte log: %w", n, log.Capacity(), vfs.ErrNoSpace)
	case log.Used()+need > log.Capacity():
		return fs.checkpoint()
	}
	return nil
}

// appendLog writes one entry to the strict-mode operation log, into room
// the operation reserved when it took wmu (lockStrict): CAS tail bump +
// non-temporal entry store + single fence.
func (fs *FS) appendLog(entry []byte) {
	fs.clk.Charge(sim.CatCPU, sim.CASNs)
	fs.stats.logEntries.Add(1)
	if err := fs.olog.Append(entry, metalog.SingleFence); err != nil {
		panic(fmt.Sprintf("splitfs: op-log append outside its reservation: %v", err))
	}
}
