package splitfs

import (
	"sort"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// splitfs files are vfs.Mappable: the kernel file's DAX extents cover
// the relinked prefix ([0, ksize)), and the staged overlay — whose
// ranges live in mmap'd staging files — covers the rest, projected to
// the staging files' device offsets. That is exactly the paper's
// U-Split read path (base mmap + staged patch) expressed as a lease.
// Bytes shadowed by a staged range are served from the staging file,
// never from the stale kernel blocks underneath; DRAM-staged bytes
// (StageInDRAM ablation) have no device offset and are simply absent,
// as are zero-fill gaps between ksize and staged ranges.
//
// The epoch is the sum of the overlay epoch (of.mapEpoch) and the
// kernel inode's epoch: both are monotone, so equality across a
// seqlock validation window implies neither moved. A handle whose
// description has been recycled reads staleEpoch, which no open handle
// reads.
var _ vfs.Mappable = (*File)(nil)

// staleEpoch is MapEpoch's answer once the handle's description serves
// another file: the lease holder's next validation fails, and its
// re-grant gets vfs.ErrClosed.
const staleEpoch = ^uint64(0)

// MapExtents implements vfs.Mappable. Caller-visible ordering: the
// returned epoch is collected under of.mu together with the extents,
// and every mutation that invalidates them bumps one of the two epoch
// counters under the same lock before stale bytes can be recycled.
func (f *File) MapExtents(off, length int64) ([]vfs.Extent, uint64, error) {
	if off < 0 || length < 0 {
		return nil, 0, vfs.ErrInval
	}
	of := f.of
	of.mu.RLock()
	defer of.mu.RUnlock()
	if !f.live() {
		return nil, 0, vfs.ErrClosed
	}
	epoch := of.mapEpoch.Load() + of.kf.MapEpoch()
	end := off + length
	if end > of.size {
		end = of.size
	}
	if end <= off {
		return nil, epoch, nil
	}
	var exts []vfs.Extent
	// Kernel base: the relinked prefix, minus byte ranges shadowed by
	// any staged range (the overlay wins there, aligned or not).
	if kEnd := min(end, of.ksize); kEnd > off {
		for _, g := range subtractStaged(of.staged, off, kEnd) {
			kexts, _, err := of.kf.MapExtents(g.a, g.b-g.a)
			if err != nil {
				return nil, 0, err
			}
			exts = append(exts, kexts...)
		}
	}
	// Staged overlay, flattened latest-writer-wins so every byte has
	// exactly one source, then projected through the staging files'
	// populated mappings to device offsets.
	for _, pc := range partitionStaged(new(relinkScratch), of.staged) {
		a, b := max(pc.a, off), min(pc.b, end)
		if a >= b || pc.src.dram != nil {
			continue
		}
		sfOff := pc.src.sfOff + (a - pc.src.fileOff)
		for cur := a; cur < b; {
			devOff, contig, ok := pc.src.sf.m.Translate(sfOff+(cur-a), b-cur)
			if !ok {
				break
			}
			span := min(contig, b-cur)
			exts = append(exts, vfs.Extent{FileOff: cur, DevOff: devOff, Length: span})
			cur += span
		}
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].FileOff < exts[j].FileOff })
	return exts, epoch, nil
}

// MapEpoch implements vfs.Mappable (lock-free). Monotone sum of the
// overlay and kernel epochs, read before the generation: a description
// retires (gen moves) before it is reopened on another inode, so a sum
// read while gen still matched is this file's.
func (f *File) MapEpoch() uint64 {
	of := f.of
	e := of.mapEpoch.Load() + of.kf.MapEpoch()
	if of.gen.Load() != f.gen {
		return staleEpoch
	}
	return e
}

// LoadMapped implements vfs.Mappable: a user-space load through the
// leased mapping, no kernel or U-Split involvement.
func (f *File) LoadMapped(p []byte, devOff int64) int {
	f.of.fs.dev.ReadIntoUser(p, devOff, sim.CatPMData)
	return len(p)
}

// span is a half-open byte interval.
type span struct{ a, b int64 }

// subtractStaged returns the maximal subranges of [off, end) that no
// staged range touches, in ascending order.
func subtractStaged(staged []stagedRange, off, end int64) []span {
	gaps := []span{{off, end}}
	for _, s := range staged {
		lo, hi := s.fileOff, s.fileOff+s.length
		next := gaps[:0:0]
		for _, g := range gaps {
			if g.b <= lo || hi <= g.a {
				next = append(next, g)
				continue
			}
			if g.a < lo {
				next = append(next, span{g.a, lo})
			}
			if hi < g.b {
				next = append(next, span{hi, g.b})
			}
		}
		gaps = next
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].a < gaps[j].a })
	return gaps
}
