package ext4dax

import (
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// ext4dax files are vfs.Mappable: extents translate directly to device
// offsets (that is what DAX means), so a lease on them is exactly an
// ext4dax.Mapping handed across the trust boundary. Remap events —
// truncateLocked, Batch.Relink — bump in.mapEpoch under in.mu before
// freed blocks can be recycled; MapExtents snapshots
// extents and epoch under in.mu.RLock, the same lock discipline as the
// data read path.
var _ vfs.Mappable = (*File)(nil)

// MapExtents implements vfs.Mappable. The walk stops at the first hole:
// a hole has no device bytes to lease, and readers of uncovered ranges
// fall back to the copy path, which zero-fills.
func (f *File) MapExtents(off, length int64) ([]vfs.Extent, uint64, error) {
	if off < 0 || length < 0 {
		return nil, 0, vfs.ErrInval
	}
	fs := f.fs
	if f.closed.Load() {
		return nil, 0, vfs.ErrClosed
	}
	f.in.mu.RLock()
	defer f.in.mu.RUnlock()
	if f.stale() {
		return nil, 0, vfs.ErrClosed
	}
	epoch := f.in.mapEpoch.Load()
	end := off + length
	if end > f.in.size {
		end = f.in.size
	}
	var exts []vfs.Extent
	for cur := off; cur < end; {
		logical := cur / sim.BlockSize
		inBlk := cur % sim.BlockSize
		devOff, contig, ok := translate(fs, f.in, logical)
		if !ok {
			break
		}
		span := contig*sim.BlockSize - inBlk
		if rem := end - cur; span > rem {
			span = rem
		}
		exts = append(exts, vfs.Extent{FileOff: cur, DevOff: devOff + inBlk, Length: span})
		cur += span
	}
	return exts, epoch, nil
}

// MapEpoch implements vfs.Mappable (lock-free).
func (f *File) MapEpoch() uint64 { return f.epochIn.Load().mapEpoch.Load() }

// LoadMapped implements vfs.Mappable: a processor load through the
// mapping, charged like any other user-space PM read. No trap.
func (f *File) LoadMapped(p []byte, devOff int64) int {
	f.fs.dev.ReadIntoUser(p, devOff, sim.CatPMData)
	return len(p)
}
