package splitfs

import (
	"sync"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

// mmapCache is the collection of memory-mappings (§3.3): every mapping
// U-Split creates is cached and reused until the file is unlinked, which
// keeps page faults and mmap syscalls off the data path and preserves
// huge pages once established (§4).
//
// The cache has its own lock, at the bottom of the U-Split hierarchy
// (callers may hold ofile.mu): the common case is a read-locked map hit,
// so concurrent readers of different — or the same — files never
// serialize here.
type mmapCache struct {
	fs *FS

	mu sync.RWMutex // +lockrank:mmapcache
	// regions holds every cached mapping, one per MmapBytes-sized window
	// of a file, in one table for all inodes: a file mapped for the first
	// time adds an entry, not a table of its own. bound[ino] is one past
	// the highest window index cached for the inode, so that drop, trim
	// and count can find each of its windows without a walk of the table.
	regions map[regionKey]*ext4dax.Mapping
	bound   map[uint64]int64
}

// regionKey names window idx (bytes [idx*MmapBytes, (idx+1)*MmapBytes))
// of inode ino.
type regionKey struct {
	ino uint64
	idx int64
}

func newMmapCache(fs *FS) *mmapCache {
	return &mmapCache{fs: fs, regions: make(map[regionKey]*ext4dax.Mapping), bound: make(map[uint64]int64)}
}

// load copies into p the file's bytes at fileOff through the mapping
// covering it, no further than the mapping reaches, and returns how many
// it copied; mapped is false, with nothing copied, when the region cannot
// be mapped (e.g. a hole). It is one access in flight
// (ext4dax.FS.BeginAccess) from before the lookup to after the copy, so
// that an unlink's drop, which hands the table back for reuse, cannot
// have it reused under the copy.
func (c *mmapCache) load(of *ofile, p []byte, fileOff int64) (n int, mapped bool) {
	c.fs.kfs.BeginAccess()
	if m := c.get(of, fileOff); m != nil {
		if end := m.FileOff + m.Length(); fileOff+int64(len(p)) > end {
			p = p[:max(end-fileOff, 0)]
		}
		n, mapped = m.Load(p, fileOff), true
	}
	c.fs.kfs.EndAccess()
	return n, mapped
}

// storeNT is load for non-temporal stores of p into the file at fileOff,
// durable only after the caller's fence.
func (c *mmapCache) storeNT(of *ofile, p []byte, fileOff int64) (n int, mapped bool) {
	c.fs.kfs.BeginAccess()
	if m := c.get(of, fileOff); m != nil {
		n, mapped = m.StoreNT(pmem.SrcForeground, p, fileOff), true
	}
	c.fs.kfs.EndAccess()
	return n, mapped
}

// get returns a mapping covering fileOff of the file, creating and
// caching the surrounding MmapBytes region on miss; the caller has the
// access in flight. Returns nil when the region cannot be mapped (e.g. a
// hole). The kernel mmap runs outside the cache lock — one file's
// cold-region fault (syscall + population cost) must not stall readers
// of every other file — so the insert re-validates under the lock: a
// racing mapper's region wins, and a mapping that raced an unlink of its
// file is discarded rather than cached over freed blocks.
func (c *mmapCache) get(of *ofile, fileOff int64) *ext4dax.Mapping {
	rsize := c.fs.cfg.MmapBytes
	k := regionKey{of.ino, fileOff / rsize}
	c.mu.RLock()
	m := c.regions[k]
	c.mu.RUnlock()
	// The cached region may predate growth of the file; if the offset is
	// beyond it, remap the region to its current extent.
	if m != nil && fileOff < m.FileOff+m.Length() {
		c.fs.stats.mmapHits.Add(1)
		return m
	}
	nm, err := c.fs.kfs.Mmap(&of.kf, k.idx*rsize, rsize, ext4dax.MmapOptions{
		Populate: true,
		Huge:     !c.fs.cfg.DisableHugePages,
	})
	if err != nil {
		c.fs.stats.mmapMisses.Add(1)
		return nil
	}
	c.mu.Lock()
	if m := c.regions[k]; m != nil && fileOff < m.FileOff+m.Length() {
		// Lost the mapping race: reuse the winner's region; ours is
		// unmapped like the real library would.
		c.mu.Unlock()
		c.fs.stats.mmapHits.Add(1)
		nm.Unmap()
		return m
	}
	if !of.kf.Linked() {
		// Raced an unlink: the file is now an orphan inode, alive only
		// until our handle closes. The mapping is valid (orphan blocks
		// stay allocated, per POSIX) so serve it for this access, but
		// don't cache state for an inode number that frees on close.
		c.mu.Unlock()
		c.fs.stats.mmapMisses.Add(1)
		return nm
	}
	c.replace(of.ino, k.idx, nm)
	c.mu.Unlock()
	c.fs.stats.mmapMisses.Add(1)
	return nm
}

// refresh quietly brings cached mappings covering [fileOff,
// fileOff+length) up to date after a relink: the modified ioctl keeps
// page tables valid across the extent move, so refreshed mappings carry
// no syscall or fault cost, and only the entries under the moved range
// are touched (ext4dax.FS.Remap). Appended regions whose staged bytes
// were written through a staging-file mapping also stay mapped for free
// — §3.3, Figure 2: the relinked block "retains its mmap() region".
// Regions never mapped by either path still fault on first touch.
func (c *mmapCache) refresh(of *ofile, fileOff, length int64, staged bool) {
	rsize := c.fs.cfg.MmapBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx := fileOff / rsize; idx <= (fileOff+length-1)/rsize; idx++ {
		k := regionKey{of.ino, idx}
		old := c.regions[k]
		if old == nil && !staged {
			continue // never mapped: first access pays its faults
		}
		m, err := c.fs.kfs.Remap(old, &of.kf, idx*rsize, rsize, !c.fs.cfg.DisableHugePages, fileOff, length)
		if err != nil {
			m = nil // the window is forgotten: its next access maps it afresh
		}
		c.replace(of.ino, idx, m)
	}
}

// replace caches m as window idx of ino in place of the mapping it held,
// or forgets the window if m is nil, and only then hands a table it no
// longer caches back to K-Split (ext4dax.Mapping.Release): out of the
// cache first, so no later lookup finds it, and an access that found it
// earlier is in flight until a commit lets the table be reused. A replaced
// mapping was outgrown, not unmapped: the munmap is not charged. Caller
// holds c.mu.
func (c *mmapCache) replace(ino uint64, idx int64, m *ext4dax.Mapping) {
	k := regionKey{ino, idx}
	old := c.regions[k]
	if m == nil {
		delete(c.regions, k)
	} else {
		c.regions[k] = m
		if idx >= c.bound[ino] {
			c.bound[ino] = idx + 1
		}
	}
	if old != nil && old != m {
		old.Release()
	}
}

// drop unmaps and forgets every mapping of an inode (unlink path, §3.5:
// "A memory-mapping is only discarded on unlink()"), handing each table
// back to K-Split for the next file's mapping once no access that found
// it here is in flight. Returns how many mappings were torn down.
func (c *mmapCache) drop(ino uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for idx := range c.bound[ino] {
		k := regionKey{ino, idx}
		if m := c.regions[k]; m != nil {
			m.Unmap()
			delete(c.regions, k)
			n++
		}
	}
	delete(c.bound, ino)
	return n
}

// trim forgets the windows of an inode that reach past the block holding
// its new end, size, after a truncate: their blocks may be freed and
// taken by another file. A window wholly below that block loses none of
// its blocks and stays cached, and a truncate that does not shrink the
// file forgets nothing. A forgotten window's mapping is released, not
// unmapped: §3.5 discards a mapping only at unlink, so no munmap is
// charged, and the window's next access maps it afresh and pays an mmap
// the real library would not (DESIGN.md, "Mapping lifetime").
func (c *mmapCache) trim(ino uint64, size int64) {
	end := (size + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx := end / c.fs.cfg.MmapBytes; idx < c.bound[ino]; idx++ {
		if m := c.regions[regionKey{ino, idx}]; m != nil && m.FileOff+m.Length() > end {
			c.replace(ino, idx, nil)
		}
	}
}

// count returns the number of cached mappings for an inode.
func (c *mmapCache) count(ino uint64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for idx := range c.bound[ino] {
		if c.regions[regionKey{ino, idx}] != nil {
			n++
		}
	}
	return n
}

func (c *mmapCache) memoryUsage() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var b int64
	for _, m := range c.regions {
		b += 160 + m.TableBytes()
	}
	return b
}
