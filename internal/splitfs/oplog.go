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

// The operation log (§3.3, "Optimized logging"):
//
//   - logical redo records, one 64-byte cache line in the common case;
//   - a 4-byte transactional checksum inside the entry, so persisting and
//     validating needs ONE fence (metalog.SingleFence), versus NOVA's two;
//   - the tail lives only in DRAM and is advanced with compare-and-swap
//     (charged as sim.OpLogCAS); recovery identifies valid entries by scanning
//     the log from its first slot and checking checksums and sequence
//     numbers;
//   - entries hold a logical pointer to the staging file holding the
//     data, never the data itself; the data is fenced before its entry is
//     stored, so a staged write costs a second fence and no checksum over
//     the data;
//   - when the log cannot take an operation's entries, U-Split
//     checkpoints — commits K-Split's running transaction (in strict mode
//     after relinking every open file), then zeroes and reuses the log —
//     before the operation stages anything;
//   - beyond the paper, a log whose every record is covered — K-Split
//     holds what each describes, committed — rewinds to its first slot
//     after an fsync, without zeroing (rewindLog): the sequence numbers
//     end the scan at the last lap's end, so the log backs one lap's
//     frames, not its region, and fsyncing workloads never fill it.
//
// Strict mode logs every mutating operation. Sync mode logs metadata
// operations only, which is what makes them synchronous without a journal
// commit of their own (DESIGN.md, "Synchronous metadata without a
// commit"); its log is a fraction of the strict one's size.

// Log entry opcodes.
const (
	opEntryWrite byte = 1 // staged append/overwrite
	opEntryMeta  byte = 3 // metadata operation (open/close/unlink/...)
)

// The log is a metalog running inside a pre-allocated K-Split file.
const oplogDir = "/.splitfs-oplog"

// syncLogShare is the part of Config.OpLogBytes a sync-mode instance
// uses: its log holds metadata records only, and a checkpoint of it is one
// journal commit plus zeroing the region, so a small log costs next to
// nothing (1/32 of the 8 MB default: 64 blocks zeroed every ~4 000
// records) where the strict-sized one costs its 8 MB of resident memory.
const syncLogShare = 32

// minOpLogBytes is the smallest log region worth running.
const minOpLogBytes = 64 << 10

// opLogBytes is the size of this instance's operation log.
func (fs *FS) opLogBytes() int64 {
	if fs.mode == Strict {
		return fs.cfg.OpLogBytes
	}
	return max(fs.cfg.OpLogBytes/syncLogShare, minOpLogBytes)
}

func (fs *FS) opLogPath() string { return fmt.Sprintf("%s/log-%s", oplogDir, fs.mode) }

// newOpLog creates (or truncates) the instance's operation-log file,
// pre-allocates it, zeroes it, and maps it.
func newOpLog(fs *FS) (*metalog.Log, error) {
	if err := fs.kfs.Mkdir(oplogDir, 0700); err != nil {
		if _, statErr := fs.kfs.Stat(oplogDir); statErr != nil {
			return nil, err
		}
	}
	f, err := fs.kfs.OpenFile(fs.opLogPath(), vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0600)
	if err != nil {
		return nil, err
	}
	kf := f.(*ext4dax.File)
	if err := kf.Preallocate(fs.opLogBytes()/sim.BlockSize, 0); err != nil {
		return nil, err
	}
	base, size, err := oplogRegion(fs, kf)
	if err != nil {
		return nil, err
	}
	return metalog.New(fs.dev, base, size, sim.CatOpLog), nil
}

// loadOpLog attaches to an existing operation-log file after a crash,
// handing each valid entry to replay in log order; a nil log means the
// crashed instance never got as far as committing one.
func loadOpLog(fs *FS, replay func(entry []byte) error) (*metalog.Log, error) {
	f, err := fs.kfs.OpenFile(fs.opLogPath(), vfs.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("splitfs recovery: %w", err)
	}
	base, size, err := oplogRegion(fs, f.(*ext4dax.File))
	if err != nil {
		return nil, fmt.Errorf("splitfs recovery: %w", err)
	}
	return metalog.Scan(fs.dev, base, size, sim.CatOpLog, replay)
}

// oplogRegion maps the log file and returns its largest leading
// physically contiguous device region.
func oplogRegion(fs *FS, kf *ext4dax.File) (base, size int64, err error) {
	m, err := fs.kfs.Mmap(kf, 0, fs.opLogBytes(), ext4dax.MmapOptions{Populate: true})
	if err != nil {
		return 0, 0, err
	}
	base, contig, ok := m.Translate(0, fs.opLogBytes())
	if !ok {
		return 0, 0, fmt.Errorf("splitfs: op log not mapped")
	}
	size = min(contig, fs.opLogBytes())
	if size < minOpLogBytes {
		return 0, 0, fmt.Errorf("splitfs: op log fragmented to %d bytes", size)
	}
	return base, size, nil
}

// writeEntryBytes is the size of a staged-write record.
const writeEntryBytes = 37

// encWriteEntry builds a staged-write record — one cache line on the log
// including the metalog header (§3.3: "all common case operations can be
// logged using a single 64B log entry"). seq is the monotonically
// increasing operation sequence compared against the inode's relink
// watermark at recovery. The entry names the staged bytes and carries no
// checksum over them: stagePiece fences the data before it stores the
// entry, so an entry that survives a crash points at data that did too.
func encWriteEntry(ino uint32, fileOff int64, length uint32, stagingIno uint32, stagingOff int64, seq uint64) []byte {
	b := make([]byte, writeEntryBytes)
	b[0] = opEntryWrite
	binary.LittleEndian.PutUint32(b[1:], ino)
	binary.LittleEndian.PutUint32(b[5:], stagingIno)
	binary.LittleEndian.PutUint64(b[9:], uint64(fileOff))
	binary.LittleEndian.PutUint32(b[17:], length)
	binary.LittleEndian.PutUint64(b[21:], uint64(stagingOff))
	binary.LittleEndian.PutUint64(b[29:], seq)
	return b
}

// writeEntry is a decoded staged-write record.
type writeEntry struct {
	ino, stagingIno     uint64
	fileOff, stagingOff int64
	length              int64
	seq                 uint64
}

// decodeWriteEntry parses encWriteEntry's record.
func decodeWriteEntry(e []byte) writeEntry {
	return writeEntry{
		ino:        uint64(binary.LittleEndian.Uint32(e[1:])),
		stagingIno: uint64(binary.LittleEndian.Uint32(e[5:])),
		fileOff:    int64(binary.LittleEndian.Uint64(e[9:])),
		length:     int64(binary.LittleEndian.Uint32(e[17:])),
		stagingOff: int64(binary.LittleEndian.Uint64(e[21:])),
		seq:        binary.LittleEndian.Uint64(e[29:]),
	}
}

// encMetaEntry records an open or a close of an existing file. Neither
// changes any metadata, so replay has nothing to redo for them; logging
// them preserves the paper's cost profile for strict mode (Table 6: strict
// open 2.09 µs vs POSIX 1.82 µs).
func encMetaEntry(kind byte, ino uint64) []byte {
	b := make([]byte, 17)
	b[0] = opEntryMeta
	b[1] = kind
	binary.LittleEndian.PutUint64(b[2:], ino)
	return b
}

// Kinds of metadata record. Open and close are encMetaEntry's; the rest
// are metaRecords, redone by recovery.
const (
	metaOpen     byte = 'o'
	metaClose    byte = 'c'
	metaCreate   byte = 'C' // open(O_CREATE) of a name that was free
	metaMkdir    byte = 'm'
	metaUnlink   byte = 'u'
	metaRmdir    byte = 'd'
	metaRename   byte = 'r'
	metaTruncate byte = 't' // ftruncate, and open(O_TRUNC) of an existing file
)

// metaRecord is the logical redo record of one metadata operation: what
// sync and strict mode append, with one fence, instead of committing the
// journal. It names the operation's sequence number — recovery redoes the
// records above the stamp K-Split committed (stampedMeta) — and its
// operands: paths for the namespace operations, plus the inode number a
// create or mkdir was given (recovery re-creates under the same number, so
// that records naming inodes keep naming the same files); the inode and
// the new size for a truncate, which goes through a handle and so knows no
// path.
type metaRecord struct {
	kind  byte
	seq   uint64
	ino   uint64 // create, mkdir, truncate
	size  int64  // truncate
	path  string // all but truncate
	path2 string // rename's destination
}

// metaFixedBytes bounds a metaRecord's payload less its paths.
const metaFixedBytes = 22

// metaRecordBytes is what a record with n bytes of path takes on the log,
// at most: `/d07/f31`, a rename of two such and `/segs/seg-000123` all fit
// one cache line; longer paths take more.
func metaRecordBytes(n int) int64 { return metalog.RecordLen(metaFixedBytes + n) }

// appendTo appends the record's log entry to b.
func (r metaRecord) appendTo(b []byte) []byte {
	b = append(b, opEntryMeta, r.kind)
	b = binary.LittleEndian.AppendUint64(b, r.seq)
	switch r.kind {
	case metaCreate, metaMkdir:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.ino))
	case metaRename:
		b = binary.LittleEndian.AppendUint16(b, uint16(len(r.path)))
	case metaTruncate:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.ino))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.size))
	}
	return append(append(b, r.path...), r.path2...)
}

// decodeMetaRecord parses a metadata entry that is not an open or close.
func decodeMetaRecord(e []byte) (metaRecord, error) {
	bad := func() (metaRecord, error) {
		return metaRecord{}, fmt.Errorf("splitfs recovery: malformed metadata record %q (%d bytes)", e[1], len(e))
	}
	if len(e) < 10 {
		return bad()
	}
	r := metaRecord{kind: e[1], seq: binary.LittleEndian.Uint64(e[2:])}
	rest := e[10:]
	switch r.kind {
	case metaCreate, metaMkdir:
		if len(rest) < 4 {
			return bad()
		}
		r.ino, r.path = uint64(binary.LittleEndian.Uint32(rest)), string(rest[4:])
	case metaUnlink, metaRmdir:
		r.path = string(rest)
	case metaRename:
		if len(rest) < 2 || len(rest) < 2+int(binary.LittleEndian.Uint16(rest)) {
			return bad()
		}
		n := int(binary.LittleEndian.Uint16(rest))
		r.path, r.path2 = string(rest[2:2+n]), string(rest[2+n:])
	case metaTruncate:
		if len(rest) != 12 {
			return bad()
		}
		r.ino, r.size = uint64(binary.LittleEndian.Uint32(rest)), int64(binary.LittleEndian.Uint64(rest[4:]))
	default:
		return bad()
	}
	return r, nil
}

// logEntryBytes is what a write, open or close entry takes on the log: one
// cache line with the metalog header.
const logEntryBytes = sim.CacheLine

// reserveLog makes room for the bytes of entries the calling operation is
// about to append, checkpointing the log if it is too full to take them
// (§3.3). Caller holds wmu — which serializes the log tail, standing in
// for the paper's CAS loop, so room found here stays until the caller
// unlocks — and no file lock: the checkpoint takes every open file's.
func (fs *FS) reserveLog(need int64) error {
	log := fs.olog
	switch {
	case need > log.Capacity():
		return fmt.Errorf("splitfs: %d bytes of op-log entries exceed the %d-byte log: %w", need, log.Capacity(), vfs.ErrNoSpace)
	case log.Used()+need > log.Capacity():
		return fs.checkpoint()
	}
	return nil
}

// appendLog writes one entry to the operation log, into room the
// operation reserved when it took wmu (lockStrict, lockMeta): CAS tail
// bump + non-temporal entry store + single fence.
func (fs *FS) appendLog(entry []byte) {
	fs.clk.Charge(sim.OpLogCAS)
	fs.stats.logEntries.Add(1)
	if err := fs.olog.Append(entry, metalog.SingleFence); err != nil {
		panic(fmt.Sprintf("splitfs: op-log append outside its reservation: %v", err))
	}
}
