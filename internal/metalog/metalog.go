// Package metalog provides an append-only, checksummed, persistent record
// log with snapshot-based checkpointing. It is the shared persistence
// substrate for the log-structured baseline file systems in this
// repository:
//
//   - NOVA persists every operation as a log entry followed by a tail
//     update — two cache-line persists and two fences (§3.3 of the paper
//     contrasts this with SplitFS's single-fence logging).
//   - PMFS uses fine-grained journaling — one fenced record per metadata
//     update.
//   - Strata's private operation log and the U-Split operation log use the
//     same record format with their own cost profiles.
//
// Records are padded to 64-byte cache lines and carry a 4-byte checksum
// over the payload and sequence number, so torn writes (partially
// persisted lines after a crash) are detected and treated as the end of
// the log — the same trick SplitFS uses to need only one fence.
//
// A log is zeroed at New and Reset. In between, Rewind may start the next
// lap at the first slot over the records of the last one: the sequence
// counts on across laps, so every record an earlier lap left past the new
// lap's end carries a lower number than the one the scan expects there,
// and ends it (jbd2's rule: sequence numbers, not zeroed space, end the
// replay).
package metalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// FenceMode selects the persistence discipline of Append.
type FenceMode int

const (
	// SingleFence writes the record with non-temporal stores and issues
	// one fence; validity is established by the checksum (SplitFS-style,
	// §3.3).
	SingleFence FenceMode = iota
	// EntryPlusTail additionally updates a persistent tail pointer with a
	// store+flush+fence (NOVA-style: "at least two cache lines and two
	// fences").
	EntryPlusTail
	// NoFence appends without fencing; the caller fences later (Strata
	// batches up to fsync).
	NoFence
)

const (
	headerSize = 16 // length (4) | seq (4) | checksum (4) | reserved (4)
	// tailSlot is the reserved first cache line of the region, used by
	// EntryPlusTail mode.
	tailSlot = sim.CacheLine
)

// ErrFull is returned when the log region cannot hold a record.
var ErrFull = errors.New("metalog: log full")

// Log is an append-only record log on a PM device region.
type Log struct {
	dev   *pmem.Device
	start int64
	size  int64
	cat   sim.Category

	tail int64 // next append offset, relative to start (DRAM-only)
	seq  uint32
	// lap is the sequence number of the current lap's first record.
	lap uint32
	// long is set while the region may hold a record longer than a cache
	// line — Append wrote one since the region was last zeroed, or Load
	// found the region as someone else left it — and keeps Rewind out.
	long bool

	// rec is Append's record image, reused by every append (callers
	// serialize appends, as tail and seq need). The log owns it because
	// the checksum makes what it is handed escape: a per-record buffer is
	// garbage on every logged operation (DESIGN.md, "Host allocation and
	// peak RSS").
	rec []byte
}

// New formats (zeroes) a log region. The zeroing is what lets recovery
// identify the end of the log: the first record slot with a zero length
// terminates the scan.
func New(dev *pmem.Device, start, size int64, cat sim.Category) *Log {
	l := &Log{dev: dev, start: start, size: size, cat: cat, tail: tailSlot, seq: 1, lap: 1}
	l.zeroRegion()
	return l
}

func (l *Log) zeroRegion() {
	for off := int64(0); off < l.size; off += sim.BlockSize {
		n := min(l.size-off, sim.BlockSize)
		l.dev.StoreNT(l.start+off, zeroBlock[:n], l.cat)
	}
	l.dev.Fence()
}

// zeroBlock is the one source of the zeros zeroRegion stores, so a
// checkpoint's Reset allocates nothing.
var zeroBlock [sim.BlockSize]byte

// Load scans an existing log region and returns the log (positioned after
// the last valid record) plus every valid record payload in order.
// Scanning starts at the first slot's sequence number and stops at the
// first zero-length slot, checksum mismatch (a torn record) or break in
// the sequence (a record of an earlier lap). The log it returns does not
// rewind before a Reset: it cannot tell what lies past its tail.
func Load(dev *pmem.Device, start, size int64, cat sim.Category) (*Log, [][]byte) {
	var records [][]byte
	l, _ := Scan(dev, start, size, cat, func(payload []byte) error {
		records = append(records, bytes.Clone(payload))
		return nil
	})
	return l, records
}

// Scan is Load for a log too large to hold: it hands every valid record
// payload of the lap the first slot starts to fn in order, in a buffer the
// next record reuses, and keeps none. An error from fn ends the scan and
// is returned with a nil log.
func Scan(dev *pmem.Device, start, size int64, cat sim.Category, fn func(payload []byte) error) (*Log, error) {
	l := &Log{dev: dev, start: start, size: size, cat: cat, tail: tailSlot, seq: 1, lap: 1, long: true}
	hdr := make([]byte, headerSize)
	var payload []byte
	for l.tail+headerSize <= size {
		dev.ReadAt(hdr, start+l.tail, cat)
		length := binary.LittleEndian.Uint32(hdr[0:4])
		if length == 0 {
			break
		}
		seq := binary.LittleEndian.Uint32(hdr[4:8])
		sum := binary.LittleEndian.Uint32(hdr[8:12])
		recLen := RecordLen(int(length))
		// The first record's sequence number starts the lap; after it, a
		// record of an earlier lap carries a lower one.
		if l.tail+recLen > size || l.tail > tailSlot && seq != l.seq {
			break
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		dev.ReadAt(payload, start+l.tail+headerSize, cat)
		if Checksum(seq, payload) != sum {
			break // torn record: end of valid log
		}
		if err := fn(payload); err != nil {
			return nil, err
		}
		if l.tail == tailSlot {
			l.lap = seq
		}
		l.tail += recLen
		l.seq = seq + 1
	}
	return l, nil
}

// Records rescans the log's region: every valid record payload, in order.
func (l *Log) Records() [][]byte {
	_, records := Load(l.dev, l.start, l.size, l.cat)
	return records
}

// RecordLen is the 64-byte-aligned on-log size of a payload: what Append
// will take, so a caller can make room first.
func RecordLen(payloadLen int) int64 {
	return (int64(payloadLen) + headerSize + sim.CacheLine - 1) /
		sim.CacheLine * sim.CacheLine
}

// Append writes one record. The common case (payload ≤ 48 bytes) is a
// single cache line. Returns ErrFull when the region is exhausted — the
// caller checkpoints and calls Reset.
func (l *Log) Append(payload []byte, mode FenceMode) error {
	recLen := RecordLen(len(payload))
	if l.tail+recLen > l.size {
		return ErrFull
	}
	l.long = l.long || recLen > sim.CacheLine
	if int64(cap(l.rec)) < recLen {
		l.rec = make([]byte, recLen)
	}
	buf := l.rec[:recLen]
	clear(buf) // the reserved header word and the padding stay zero
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], l.seq)
	// The sum is taken over the record's own copy: what Checksum is handed
	// escapes, and the caller's payload — the op log's 37-byte entry —
	// is on its stack.
	n := copy(buf[headerSize:], payload)
	binary.LittleEndian.PutUint32(buf[8:12], Checksum(l.seq, buf[headerSize:headerSize+n]))
	l.dev.Clock().Charge(sim.LogChecksum)
	l.dev.StoreNT(l.start+l.tail, buf, l.cat)
	switch mode {
	case SingleFence:
		l.dev.Fence()
	case EntryPlusTail:
		l.dev.Fence()
		// Persistent tail pointer: one more cache line + fence.
		var tb [8]byte
		binary.LittleEndian.PutUint64(tb[:], uint64(l.tail+recLen))
		l.dev.Store(l.start, tb[:], l.cat)
		l.dev.Flush(l.start, 8, l.cat)
		l.dev.Fence()
	case NoFence:
	}
	l.tail += recLen
	l.seq++
	return nil
}

// Fence orders previously appended NoFence records.
func (l *Log) Fence() { l.dev.Fence() }

// Reset zeroes the log after a checkpoint.
func (l *Log) Reset() {
	l.zeroRegion()
	l.tail = tailSlot
	l.seq, l.lap = 1, 1
	l.long = false
}

// Rewind starts the next lap at the first slot without zeroing: the
// caller no longer needs any record on the log. The records stay where
// they are and the sequence counts on, so Scan, which starts at the first
// slot's number, stops at the first record past the next lap's end: its
// number is lower than the one expected there. It refuses — reports false, and changes nothing
// — while the region may hold a record longer than a cache line: a scan
// that ended inside one would read payload bytes, which a caller may have
// chosen, as a record header. A lap that could carry the sequence past
// 2^32 zeroes the region instead (Reset).
func (l *Log) Rewind() bool {
	switch {
	case l.long:
		return false
	case uint64(l.seq)+uint64(l.size/sim.CacheLine) > math.MaxUint32:
		l.Reset()
	default:
		l.tail, l.lap = tailSlot, l.seq
	}
	return true
}

// Used returns the bytes consumed by records.
func (l *Log) Used() int64 { return l.tail - tailSlot }

// Capacity returns the total record capacity in bytes.
func (l *Log) Capacity() int64 { return l.size - tailSlot }

// Entries returns the number of records on the current lap: appended
// since New, Reset or Rewind, or found by Load.
func (l *Log) Entries() int { return int(l.seq - l.lap) }

// Checksum is a record's checksum: CRC-32C over the payload, seeded with
// the record's sequence number. Zero is reserved for "unwritten", so it
// can never validate.
func Checksum(seq uint32, payload []byte) uint32 {
	s := sim.CRC32C(seq, payload)
	if s == 0 {
		s = 1 // zero is reserved for "unwritten"
	}
	return s
}

// Snapshot is a two-slot alternating checkpoint area placed alongside a
// metalog: Save serializes opaque state into the inactive slot, persists
// it, then bumps a sequence selector, so a crash mid-checkpoint leaves
// the previous snapshot intact.
type Snapshot struct {
	dev   *pmem.Device
	start int64 // region: header line + 2 slots
	slot  int64 // bytes per slot
	cat   sim.Category
}

// NewSnapshot lays a snapshot area over [start, start+Size(slot)).
func NewSnapshot(dev *pmem.Device, start, slotSize int64, cat sim.Category) *Snapshot {
	return &Snapshot{dev: dev, start: start, slot: slotSize, cat: cat}
}

// SnapshotSize returns the device bytes needed for a snapshot area with
// the given slot size.
func SnapshotSize(slotSize int64) int64 { return sim.CacheLine + 2*slotSize }

// Save persists state into the inactive slot and flips the selector.
func (s *Snapshot) Save(state []byte) error {
	if int64(len(state)) > s.slot-8 {
		return fmt.Errorf("metalog: snapshot state %d exceeds slot %d", len(state), s.slot)
	}
	hdr := make([]byte, sim.CacheLine)
	s.dev.ReadAt(hdr[:16], s.start, s.cat)
	gen := binary.LittleEndian.Uint64(hdr[0:8])
	next := (gen % 2) // 0 -> slot0 ... gen odd means slot1 active; write the other
	slotOff := s.start + sim.CacheLine + int64(next)*s.slot
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(state)))
	s.dev.StoreNT(slotOff, lenBuf[:], s.cat)
	if len(state) > 0 {
		s.dev.StoreNT(slotOff+8, state, s.cat)
	}
	s.dev.Fence()
	binary.LittleEndian.PutUint64(hdr[0:8], gen+1)
	s.dev.PersistNT(s.start, hdr[:16], s.cat)
	return nil
}

// LoadState returns the most recent snapshot payload (nil when none).
func (s *Snapshot) LoadState() []byte {
	hdr := make([]byte, 16)
	s.dev.ReadAt(hdr, s.start, s.cat)
	gen := binary.LittleEndian.Uint64(hdr[0:8])
	if gen == 0 {
		return nil
	}
	active := (gen - 1) % 2
	slotOff := s.start + sim.CacheLine + int64(active)*s.slot
	var lenBuf [8]byte
	s.dev.ReadAt(lenBuf[:], slotOff, s.cat)
	n := int64(binary.LittleEndian.Uint64(lenBuf[:]))
	if n < 0 || n > s.slot-8 {
		return nil
	}
	state := make([]byte, n)
	if n > 0 {
		s.dev.ReadAt(state, slotOff+8, s.cat)
	}
	return state
}
