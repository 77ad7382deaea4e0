package splitfs

import (
	"sync"

	"splitfs/internal/ext4dax"
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
	// regions[ino][regionIndex] — one entry per MmapBytes-sized window.
	regions map[uint64]map[int64]*ext4dax.Mapping
}

func newMmapCache(fs *FS) *mmapCache {
	return &mmapCache{fs: fs, regions: make(map[uint64]map[int64]*ext4dax.Mapping)}
}

// get returns a mapping covering fileOff of the file, creating and
// caching the surrounding MmapBytes region on miss. Returns nil when the
// region cannot be mapped (e.g. a hole). The kernel mmap runs outside
// the cache lock — one file's cold-region fault (syscall + population
// cost) must not stall readers of every other file — so the insert
// re-validates under the lock: a racing mapper's region wins, and a
// mapping that raced an unlink of its file is discarded rather than
// cached over freed blocks.
func (c *mmapCache) get(of *ofile, fileOff int64) *ext4dax.Mapping {
	rsize := c.fs.cfg.MmapBytes
	idx := fileOff / rsize
	c.mu.RLock()
	m := c.regions[of.ino][idx]
	c.mu.RUnlock()
	// The cached region may predate growth of the file; if the offset is
	// beyond it, remap the region to its current extent.
	if m != nil && fileOff < m.FileOff+m.Length() {
		c.fs.stats.mmapHits.Add(1)
		return m
	}
	nm, err := c.fs.kfs.Mmap(of.kf, idx*rsize, rsize, ext4dax.MmapOptions{
		Populate: true,
		Huge:     !c.fs.cfg.DisableHugePages,
	})
	if err != nil {
		c.fs.stats.mmapMisses.Add(1)
		return nil
	}
	c.mu.Lock()
	if m := c.regions[of.ino][idx]; m != nil && fileOff < m.FileOff+m.Length() {
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
	byIno := c.regions[of.ino]
	if byIno == nil {
		byIno = make(map[int64]*ext4dax.Mapping)
		c.regions[of.ino] = byIno
	}
	byIno[idx] = nm
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
	byIno := c.regions[of.ino]
	if byIno == nil {
		if !staged {
			return
		}
		byIno = make(map[int64]*ext4dax.Mapping)
		c.regions[of.ino] = byIno
	}
	for idx := fileOff / rsize; idx <= (fileOff+length-1)/rsize; idx++ {
		old := byIno[idx]
		if old == nil && !staged {
			continue // never mapped: first access pays its faults
		}
		m, err := c.fs.kfs.Remap(old, of.kf, idx*rsize, rsize, !c.fs.cfg.DisableHugePages, fileOff, length)
		if err != nil {
			delete(byIno, idx)
			continue
		}
		byIno[idx] = m
	}
}

// drop unmaps and forgets every mapping of an inode (unlink path, §3.5:
// "A memory-mapping is only discarded on unlink()"). Returns how many
// mappings were torn down.
func (c *mmapCache) drop(ino uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	byIno := c.regions[ino]
	for _, m := range byIno {
		m.Unmap()
	}
	delete(c.regions, ino)
	return len(byIno)
}

// count returns the number of cached mappings for an inode.
func (c *mmapCache) count(ino uint64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.regions[ino])
}

func (c *mmapCache) memoryUsage() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var b int64
	for _, byIno := range c.regions {
		for _, m := range byIno {
			b += 160 + m.TableBytes()
		}
	}
	return b
}
