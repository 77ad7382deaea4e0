// Package alloc provides the bitmap block allocator shared by the kernel
// file systems in this repository. The bitmap itself lives on the PM
// device (so it survives crashes and can be journaled); a DRAM mirror
// makes allocation scans cache-speed, mirroring how ext4 keeps buddy
// bitmaps in the page cache.
//
// Allocation is extent-based: AllocExtent finds the longest contiguous run
// up to the requested length, next-fit, which is what makes ext4-style
// extent trees compact. AllocAligned serves the one caller that needs
// more than compactness — SplitFS staging-file pre-allocation, which
// wants a single run at a 2 MB-aligned device offset so the file can be
// mapped with huge pages — and places it lowest-first instead.
// AllocLowest takes the single lowest free block, the way ext4 hands out
// inode numbers, so that inodes made close together share table blocks.
package alloc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Extent is a contiguous run of file-system blocks.
type Extent struct {
	Start int64 // first block number
	Len   int64 // number of blocks
}

func (e Extent) String() string { return fmt.Sprintf("[%d+%d)", e.Start, e.Len) }

// End returns the first block after the extent.
func (e Extent) End() int64 { return e.Start + e.Len }

// ByteRange is a modified range of the on-device bitmap, for journaling.
type ByteRange struct {
	Off int64 // device offset of the first modified byte
	Len int
}

// Bitmap is a block bitmap with a DRAM mirror. When built with New/Load
// it writes its state through to the device (for journaled file systems),
// under the event source each mutating call names; when built with
// NewVolatile it is DRAM-only, for log-structured file systems that
// rebuild allocator state from their logs at mount.
type Bitmap struct {
	dev      *pmem.Device // nil for volatile bitmaps
	clk      *sim.Clock
	search   *sim.Row // an extent search: K-Split's, or a log engine's
	base     int64    // device offset of the bitmap region
	dataBase int64    // device offset of block 0
	nblocks  int64

	mu   sync.Mutex
	bits []byte
	free int64
	hint int64 // next-fit scan start
}

// BitmapBytes returns the size in bytes of a bitmap covering n blocks.
func BitmapBytes(n int64) int64 { return (n + 7) / 8 }

// New creates an empty (all-free) device-backed bitmap. The caller is
// responsible for persisting the initial zeroed state (mkfs does).
func New(dev *pmem.Device, base, dataBase, nblocks int64) *Bitmap {
	return &Bitmap{
		dev:      dev,
		clk:      dev.Clock(),
		search:   sim.AllocExtent,
		base:     base,
		dataBase: dataBase,
		nblocks:  nblocks,
		bits:     make([]byte, BitmapBytes(nblocks)),
		free:     nblocks,
	}
}

// NewVolatile creates a DRAM-only bitmap over nblocks blocks whose block
// 0 lives at device offset dataBase. Mutations are never written to the
// device; the owning file system re-marks allocations at mount.
func NewVolatile(clk *sim.Clock, dataBase, nblocks int64) *Bitmap {
	return &Bitmap{
		clk:      clk,
		search:   sim.EngineAlloc,
		dataBase: dataBase,
		nblocks:  nblocks,
		bits:     make([]byte, BitmapBytes(nblocks)),
		free:     nblocks,
	}
}

// Load reads the bitmap back from the device after a mount or crash
// recovery and rebuilds the DRAM mirror.
func Load(dev *pmem.Device, base, dataBase, nblocks int64) *Bitmap {
	b := New(dev, base, dataBase, nblocks)
	dev.ReadAt(b.bits, base, sim.CatPMMeta)
	for i := int64(0); i < nblocks; i += 64 {
		var buf [8]byte
		copy(buf[:], b.bits[i/8:])
		w := binary.LittleEndian.Uint64(buf[:]) // block i+k is bit k
		if n := nblocks - i; n < 64 {
			w &= 1<<n - 1 // the bits past the last block are not blocks
		}
		b.free -= int64(bits.OnesCount64(w))
	}
	return b
}

func (b *Bitmap) isSet(blk int64) bool { return b.bits[blk/8]&(1<<(blk%8)) != 0 }
func (b *Bitmap) set(blk int64)        { b.bits[blk/8] |= 1 << (blk % 8) }
func (b *Bitmap) clear(blk int64)      { b.bits[blk/8] &^= 1 << (blk % 8) }

// AllocExtent allocates up to want contiguous blocks (at least 1) and
// returns the extent plus the dirty bitmap byte range the caller must
// journal. It charges the allocator's CPU search cost. Returns
// vfs.ErrNoSpace when the device is full.
func (b *Bitmap) AllocExtent(src pmem.EventSource, want int64) (Extent, ByteRange, error) {
	if want < 1 {
		want = 1
	}
	b.clk.Charge(b.search)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.free == 0 {
		return Extent{}, ByteRange{}, vfs.ErrNoSpace
	}
	// Next-fit: scan from the hint, wrapping once; take the first free
	// run, truncated to want.
	bestStart, bestLen := int64(-1), int64(0)
	scan := func(from, to int64) bool {
		run := int64(0)
		for i := from; i < to; i++ {
			if b.isSet(i) {
				run = 0
				continue
			}
			run++
			if run == 1 {
				bestStart, bestLen = i, 0
			}
			bestLen = run
			if run >= want {
				return true
			}
		}
		return bestLen > 0
	}
	if !scan(b.hint, b.nblocks) {
		bestStart, bestLen = -1, 0
		if !scan(0, b.hint) {
			return Extent{}, ByteRange{}, vfs.ErrNoSpace
		}
	}
	if bestLen > want {
		bestLen = want
	}
	ext := Extent{Start: bestStart, Len: bestLen}
	b.hint = ext.End() % b.nblocks
	return ext, b.take(src, ext), nil
}

// AllocLowest allocates the lowest free block, as ext4 hands out inode
// numbers (the first clear bit of the group's inode bitmap), and leaves
// the next-fit hint alone: the lowest run of one block at a block-aligned
// offset, which every block's is. It charges the same search cost as
// AllocExtent. Returns vfs.ErrNoSpace when every block is taken.
func (b *Bitmap) AllocLowest(src pmem.EventSource) (Extent, ByteRange, error) {
	b.clk.Charge(b.search)
	b.mu.Lock()
	defer b.mu.Unlock()
	start := b.lowestAlignedRun(1, sim.BlockSize)
	if start < 0 {
		return Extent{}, ByteRange{}, vfs.ErrNoSpace
	}
	ext := Extent{Start: start, Len: 1}
	return ext, b.take(src, ext), nil
}

// take marks a free extent allocated and writes the bitmap bytes back.
// Caller holds b.mu.
func (b *Bitmap) take(src pmem.EventSource, ext Extent) ByteRange {
	for i := ext.Start; i < ext.End(); i++ {
		b.set(i)
	}
	b.free -= ext.Len
	return b.writeBack(src, ext)
}

// Alloc allocates exactly n blocks, possibly as multiple extents, undoing
// everything on failure.
func (b *Bitmap) Alloc(src pmem.EventSource, n int64) ([]Extent, []ByteRange, error) {
	var exts []Extent
	var dirty []ByteRange
	remaining := n
	for remaining > 0 {
		e, d, err := b.AllocExtent(src, remaining)
		if err != nil {
			for _, u := range exts {
				b.Free(src, u)
			}
			return nil, nil, err
		}
		exts = append(exts, e)
		dirty = append(dirty, d)
		remaining -= e.Len
	}
	return exts, dirty, nil
}

// AllocAligned allocates exactly n blocks as one contiguous run whose
// device offset (not block number: dataBase need not be aligned) is a
// multiple of align bytes — what a 2 MB huge-page mapping needs of its
// backing extent. It takes the lowest such run on the device and leaves
// the next-fit hint alone, so a freed aligned region is reused at once
// rather than the allocator marching aligned runs across the device.
// When no aligned run of n blocks is free it falls back to Alloc, as it
// does (at no extra charge) for an align of at most one block or one
// that is not a whole number of blocks.
func (b *Bitmap) AllocAligned(src pmem.EventSource, n, align int64) ([]Extent, []ByteRange, error) {
	if n < 1 || align <= sim.BlockSize || align%sim.BlockSize != 0 {
		return b.Alloc(src, n)
	}
	b.clk.Charge(b.search)
	b.mu.Lock()
	start := b.lowestAlignedRun(n, align)
	if start < 0 {
		b.mu.Unlock()
		return b.Alloc(src, n)
	}
	ext := Extent{Start: start, Len: n}
	dirty := b.take(src, ext)
	b.mu.Unlock()
	return []Extent{ext}, []ByteRange{dirty}, nil
}

// lowestAlignedRun returns the first block of the lowest free run of n
// blocks whose device offset is a multiple of align (a multiple of the
// block size), or -1 when there is none. Caller holds b.mu.
func (b *Bitmap) lowestAlignedRun(n, align int64) int64 {
	if b.free < n {
		return -1
	}
	// Device offset of block s is dataBase + s*BlockSize; the first
	// aligned block is the distance from dataBase up to the next multiple
	// of align, which is a block boundary only if dataBase is.
	gap := (align - b.dataBase%align) % align
	if gap%sim.BlockSize != 0 {
		return -1
	}
	step := align / sim.BlockSize
candidates:
	for s := gap / sim.BlockSize; s+n <= b.nblocks; s += step {
		for i := s; i < s+n; i++ {
			if b.isSet(i) {
				continue candidates
			}
		}
		return s
	}
	return -1
}

// AllocAt allocates exactly the extent e, or nothing. Recovery uses it to
// reproduce an allocation the crashed run made (the inode number a logged
// create was given); it charges no search cost because there is no search.
// It returns the dirty bitmap range to journal, or vfs.ErrExist when any
// block of e is already taken.
func (b *Bitmap) AllocAt(src pmem.EventSource, e Extent) (ByteRange, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.Start < 0 || e.Len < 1 || e.End() > b.nblocks {
		return ByteRange{}, vfs.ErrInval
	}
	for i := e.Start; i < e.End(); i++ {
		if b.isSet(i) {
			return ByteRange{}, vfs.ErrExist
		}
	}
	return b.take(src, e), nil
}

// MarkAllocated forces an extent to allocated state without charging
// search cost; used when rebuilding allocator state from a log replay
// (NOVA-style recovery). Marking an already-allocated block panics.
func (b *Bitmap) MarkAllocated(e Extent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := e.Start; i < e.End(); i++ {
		if b.isSet(i) {
			panic(fmt.Sprintf("alloc: MarkAllocated of live block %d", i))
		}
		b.set(i)
	}
	b.free -= e.Len
}

// Free releases an extent and returns the dirty bitmap range. Freeing
// already-free blocks panics: it indicates file-system corruption.
func (b *Bitmap) Free(src pmem.EventSource, e Extent) ByteRange {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := e.Start; i < e.End(); i++ {
		if !b.isSet(i) {
			panic(fmt.Sprintf("alloc: double free of block %d", i))
		}
		b.clear(i)
	}
	b.free += e.Len
	return b.writeBack(src, e)
}

// writeBack stores the bitmap bytes covering e to the device with
// write-ahead buffered stores, under the mutating call's event source:
// like jbd2 metadata buffers they are visible to loads at once but reach
// the media only when the owning journal transaction commits and
// checkpoints (flush+fence), and revert wholly on crash. Volatile bitmaps
// skip the device write. Caller holds b.mu.
func (b *Bitmap) writeBack(src pmem.EventSource, e Extent) ByteRange {
	if b.dev == nil {
		return ByteRange{}
	}
	lo := e.Start / 8
	hi := (e.End()-1)/8 + 1
	b.dev.As(src).StoreBuffered(b.base+lo, b.bits[lo:hi], sim.CatPMMeta)
	return ByteRange{Off: b.base + lo, Len: int(hi - lo)}
}

// BlockOffset translates a block number to its device byte offset.
func (b *Bitmap) BlockOffset(blk int64) int64 { return b.dataBase + blk*sim.BlockSize }

// ExtentOffset translates an extent to its device byte offset.
func (b *Bitmap) ExtentOffset(e Extent) int64 { return b.BlockOffset(e.Start) }

// Free blocks remaining.
func (b *Bitmap) FreeCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free
}

// First returns the first block of [from, to) that is allocated, or
// free when allocated is false, and to when there is none. It reads the
// bitmap 64 blocks at a time, under one acquisition of its lock.
func (b *Bitmap) First(from, to int64, allocated bool) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	to = min(to, b.nblocks)
	for from = max(from, 0); from < to; from = from&^63 + 64 {
		var buf [8]byte
		copy(buf[:], b.bits[from/64*8:])
		w := binary.LittleEndian.Uint64(buf[:]) // block 64k+i is bit i
		if !allocated {
			w = ^w
		}
		if w &= ^uint64(0) << (from & 63); w != 0 {
			return min(from&^63+int64(bits.TrailingZeros64(w)), to)
		}
	}
	return to
}
