// Package ext4dax implements the kernel side of SplitFS: an extent-based
// DAX file system in the style of ext4, with a JBD2 journal for metadata
// atomicity, direct-access memory mapping, and the EXT4_IOC_MOVE_EXT
// ioctl reworked into the paper's metadata-only relink (§3.5). It is the K-Split component and also the POSIX-mode baseline in
// the evaluation.
//
// Semantics (matching ext4 DAX in ordered mode):
//
//   - Metadata operations are batched in a running journal transaction and
//     become durable on fsync (or when the transaction grows large).
//     Recovery replays committed transactions, giving metadata
//     consistency — the paper's POSIX-mode guarantee.
//   - Data writes go straight to PM with non-temporal stores; they are
//     durable after fsync's fence. Appends are not atomic: a crash can
//     leave the file with any prefix of the appended data.
//
// Every public entry point charges a kernel trap, since this file system
// lives across the syscall boundary.
package ext4dax

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"splitfs/internal/alloc"
	"splitfs/internal/sim"
)

const (
	superMagic = 0xE47DA9 // "ext4 dax", roughly

	// inodeSize is the on-disk inode record size.
	inodeSize = 512
	// inlineOff is where the record's extent records start, after the
	// header: magic, type, link count, size, block count, inline extent
	// count and the first leaf's block.
	inlineOff = 48
	// uwmOff is where the record keeps U-Split's watermark: its last
	// eight bytes.
	uwmOff = inodeSize - 8
	// extentRecSize is the on-disk size of one extent record, ext4's 12
	// bytes: logical block (4) + physical block (4) + length (4).
	extentRecSize = 12
	// InlineExtents is how many extent records the inode record holds:
	// bytes 48 to 504, up to the watermark.
	InlineExtents = (uwmOff - inlineOff) / extentRecSize
	// overflowHeader is next-pointer (8) + count (4) + pad (4).
	overflowHeader = 16
	// LeafExtents is how many extent records fit in a 4 KB overflow block
	// (a leaf), ext4's 340. A file past its inline extents chains one leaf
	// per LeafExtents of the rest.
	LeafExtents = (sim.BlockSize - overflowHeader) / extentRecSize

	// MaxFileBlocks bounds a file's logical blocks: an extent record holds
	// 32-bit block numbers.
	MaxFileBlocks = 1 << 32
	// MaxFileSize is the largest file, 16 TiB — ext4's own s_maxbytes for
	// 4 KB blocks. Writes, truncates, preallocations and relinks past it
	// fail with vfs.ErrInval before they change anything.
	MaxFileSize = MaxFileBlocks * sim.BlockSize

	// RootIno is the inode number of the root directory.
	RootIno = 1
)

// Layout describes where each on-device region lives, in bytes.
type Layout struct {
	SuperOff      int64
	JournalOff    int64
	JournalBlocks int64
	InodeBmpOff   int64
	InodeBmpLen   int64
	BlockBmpOff   int64
	BlockBmpLen   int64
	InodeTblOff   int64
	MaxInodes     int64
	DataOff       int64
	DataBlocks    int64
}

// computeLayout slices a device of size bytes into regions.
func computeLayout(size int64, journalBlocks, maxInodes int64) (Layout, error) {
	var l Layout
	l.SuperOff = 0
	l.JournalOff = sim.BlockSize
	l.JournalBlocks = journalBlocks
	l.InodeBmpOff = l.JournalOff + journalBlocks*sim.BlockSize
	l.InodeBmpLen = roundUp(alloc.BitmapBytes(maxInodes), sim.BlockSize)
	l.MaxInodes = maxInodes
	l.InodeTblOff = l.InodeBmpOff + l.InodeBmpLen
	tblLen := roundUp(maxInodes*inodeSize, sim.BlockSize)
	l.BlockBmpOff = l.InodeTblOff + tblLen

	// Solve for the number of data blocks that fit with their bitmap.
	remaining := size - l.BlockBmpOff
	if remaining < 16*sim.BlockSize {
		return l, fmt.Errorf("ext4dax: device too small (%d bytes)", size)
	}
	// Each data block costs 4096 bytes + 1/8 byte of bitmap.
	nData := (remaining - sim.BlockSize) * 8 / (8*sim.BlockSize + 1)
	l.BlockBmpLen = roundUp(alloc.BitmapBytes(nData), sim.BlockSize)
	l.DataOff = l.BlockBmpOff + l.BlockBmpLen
	l.DataBlocks = (size - l.DataOff) / sim.BlockSize
	if l.DataBlocks < 8 {
		return l, fmt.Errorf("ext4dax: device too small for data (%d bytes)", size)
	}
	if l.DataBlocks >= MaxFileBlocks { // an extent record's physical block is 32 bits
		return l, fmt.Errorf("ext4dax: device too large (%d data blocks; extent records address fewer than %d)", l.DataBlocks, int64(MaxFileBlocks))
	}
	return l, nil
}

func roundUp(n, m int64) int64 { return (n + m - 1) / m * m }

// encodeSuper serializes the superblock.
func encodeSuper(l Layout) []byte {
	b := make([]byte, 128)
	binary.LittleEndian.PutUint32(b[0:4], superMagic)
	binary.LittleEndian.PutUint64(b[8:16], uint64(l.JournalBlocks))
	binary.LittleEndian.PutUint64(b[16:24], uint64(l.MaxInodes))
	binary.LittleEndian.PutUint64(b[24:32], uint64(l.DataBlocks))
	return b
}

// decodeSuper validates and returns the format parameters.
func decodeSuper(b []byte) (journalBlocks, maxInodes int64, err error) {
	if binary.LittleEndian.Uint32(b[0:4]) != superMagic {
		return 0, 0, fmt.Errorf("ext4dax: bad superblock magic %#x",
			binary.LittleEndian.Uint32(b[0:4]))
	}
	return int64(binary.LittleEndian.Uint64(b[8:16])),
		int64(binary.LittleEndian.Uint64(b[16:24])), nil
}

// fileExtent is one record of an inode's extent map (alloc.ExtentMap).
type fileExtent = alloc.FileExtent

// inode is the in-DRAM (icache) representation of an on-disk inode.
//
// Locking (see DESIGN.md): mutations of extents/size/blocks on file
// inodes hold fs.mu AND in.mu; the lock-free data read path (File.ReadAt,
// offset resolution) holds only in.mu.RLock. Directory inodes and the
// remaining fields are accessed exclusively under fs.mu.
type inode struct {
	mu       sync.RWMutex // +lockrank:inode
	ino      uint64
	isDir    bool
	nlink    uint32
	size     int64
	blocks   int64 // allocated block count
	extents  alloc.ExtentMap
	overflow []int64 // physical block numbers of overflow extent blocks
	// uwm is an opaque user watermark, part of the SplitFS kernel patch:
	// U-Split stores its operation-log sequence number here during relink
	// so that crash recovery can tell which log entries the relink
	// already covered. Updated in the same journal transaction as the
	// relink, hence atomic with it.
	uwm uint64
	// openCnt counts live File handles; orphan marks an inode whose last
	// link was removed while handles were open (the tmpfile pattern) —
	// its blocks and number are freed at the last close, per POSIX, so
	// the inode number cannot be recycled under an open handle. Both are
	// guarded by fs.mu. Orphans are DRAM-only state: a crash leaks them
	// until a future fsck (real ext4 keeps an on-disk orphan list).
	openCnt int
	orphan  bool
	// mapEpoch counts remapping events — truncate, relink — that can
	// retire this inode's physical blocks. Bumped under
	// in.mu *before* the freed blocks become reusable, read lock-free by
	// lease holders validating seqlock-style (see vfs.Mappable). DRAM
	// only: epochs restart at zero after a crash, which is fine because
	// no lease survives a server generation.
	mapEpoch atomic.Uint64
	// mapped records that a Mapping of the inode was built, whose page
	// table may translate to blocks a relink takes out of it (deferUnmap).
	// Guarded by fs.mu.
	mapped bool
	// gen is the record's generation, ext4's i_generation: freeInode
	// bumps it, and a handle keeps the one it was opened under, so a
	// handle of a freed inode — whose record may serve another file since
	// (FS.spare) — knows it (File.stale). Written under fs.mu and in.mu,
	// read under either. DRAM only, like mapEpoch: no handle outlives a
	// crash.
	gen uint64
	// dir state, populated lazily for directories; entries are held by
	// value, keyed by name, so a create or rename allocates no entry
	entries map[string]dirEntry
	tailOff int64 // next free byte inside the directory file
	// freeSlots holds the device offsets of tombstoned records, by record
	// length, for addDirent to reuse before it grows the directory.
	freeSlots map[int64][]int64
}

// inodeMagic opens every inode record.
const inodeMagic = 0x1A0DE

// encode serializes the inode header and inline extents into b, a
// 512-byte record. Extents beyond the inline area live in leaves
// (encodeLeaf).
func (in *inode) encode(b []byte) {
	clear(b)
	binary.LittleEndian.PutUint32(b[0:4], inodeMagic)
	if in.isDir {
		b[4] = 1
	}
	binary.LittleEndian.PutUint32(b[8:12], in.nlink)
	binary.LittleEndian.PutUint64(b[16:24], uint64(in.size))
	binary.LittleEndian.PutUint64(b[24:32], uint64(in.blocks))
	n := min(len(in.extents), InlineExtents)
	binary.LittleEndian.PutUint32(b[32:36], uint32(n))
	next := int64(0)
	if len(in.overflow) > 0 {
		next = in.overflow[0]
	}
	binary.LittleEndian.PutUint64(b[40:48], uint64(next))
	for i, e := range in.extents[:n] {
		putExtent(b[inlineOff+i*extentRecSize:], e)
	}
	binary.LittleEndian.PutUint64(b[uwmOff:], in.uwm)
}

// encodeLeaf serializes leaf i of the inode's chain into b (a block of
// scratch) and returns the encoding: the next leaf's block (0 ends the
// chain), the record count, four bytes of pad, then the records — every
// leaf but the last full. What follows the records in the block is not
// part of the leaf.
func (in *inode) encodeLeaf(b []byte, i int) []byte {
	rest := in.extents[InlineExtents+i*LeafExtents:]
	chunk := rest[:min(len(rest), LeafExtents)]
	buf := b[:overflowHeader+len(chunk)*extentRecSize]
	clear(buf[:overflowHeader])
	next := int64(0)
	if i+1 < len(in.overflow) {
		next = in.overflow[i+1]
	}
	putU64(buf[0:8], uint64(next))
	putU32(buf[8:12], uint32(len(chunk)))
	for k, e := range chunk {
		putExtent(buf[overflowHeader+k*extentRecSize:], e)
	}
	return buf
}

// putExtent stores an extent record. The caller keeps its fields in 32
// bits: logical blocks below MaxFileBlocks, physical ones inside a data
// region computeLayout holds below it.
func putExtent(b []byte, e fileExtent) {
	putU32(b[0:4], uint32(e.Logical))
	putU32(b[4:8], uint32(e.Phys.Start))
	putU32(b[8:12], uint32(e.Phys.Len))
}

func getExtent(b []byte) fileExtent {
	return fileExtent{
		Logical: int64(getU32(b[0:4])),
		Phys:    alloc.Extent{Start: int64(getU32(b[4:8])), Len: int64(getU32(b[8:12]))},
	}
}

// decodeInode parses an on-disk inode record and returns it with its
// first leaf's block (0: none). It takes only what encode writes: a
// known type byte, zero pad and zero unused extent slots, a size within
// MaxFileSize, at most InlineExtents records. Leaves are resolved by the
// caller (loadInode: it needs device access), and so is what the extents
// say.
func decodeInode(ino uint64, b []byte) (*inode, int64, error) {
	if binary.LittleEndian.Uint32(b[0:4]) != inodeMagic {
		return nil, 0, fmt.Errorf("ext4dax: bad inode magic for ino %d", ino)
	}
	in := &inode{
		ino:    ino,
		isDir:  b[4] == 1,
		nlink:  binary.LittleEndian.Uint32(b[8:12]),
		size:   int64(binary.LittleEndian.Uint64(b[16:24])),
		blocks: int64(binary.LittleEndian.Uint64(b[24:32])),
		uwm:    binary.LittleEndian.Uint64(b[uwmOff:]),
	}
	n := int(binary.LittleEndian.Uint32(b[32:36]))
	next := int64(binary.LittleEndian.Uint64(b[40:48]))
	switch {
	case b[4] > 1:
		return nil, 0, fmt.Errorf("ext4dax: inode %d has type byte %d", ino, b[4])
	case in.size < 0 || in.size > MaxFileSize:
		return nil, 0, fmt.Errorf("ext4dax: inode %d has size %d, past the %d-byte bound", ino, in.size, int64(MaxFileSize))
	case n > InlineExtents:
		return nil, 0, fmt.Errorf("ext4dax: inode %d inline extent count %d", ino, n)
	case !zero(b[5:8]) || !zero(b[12:16]) || !zero(b[36:40]) || !zero(b[inlineOff+n*extentRecSize:uwmOff]):
		return nil, 0, fmt.Errorf("ext4dax: inode %d has bytes set outside its fields", ino)
	}
	for i := range n {
		in.extents = append(in.extents, getExtent(b[inlineOff+i*extentRecSize:]))
	}
	return in, next, nil
}

func zero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// dirEntry is a cached directory entry plus the device offset of its
// on-disk record, so unlink can tombstone it directly. Its name is its key
// in inode.entries.
type dirEntry struct {
	ino    uint64
	isDir  bool
	devOff int64
}

// direntSize returns the on-disk size of an entry with the given name.
func direntSize(name string) int64 { return 12 + int64(len(name)) }

// appendDirent appends a directory entry record to b:
// ino (8) | nameLen (2) | isDir (1) | pad (1) | name.
func appendDirent(b []byte, ino uint64, isDir bool, name string) []byte {
	b = binary.LittleEndian.AppendUint64(b, ino)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	var flag byte
	if isDir {
		flag = 1
	}
	b = append(b, flag, 0)
	return append(b, name...)
}
