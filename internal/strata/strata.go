// Package strata implements the Strata baseline of the SplitFS paper
// (Kwon et al., SOSP '17): a user-space LibFS that appends every data
// operation (data included) to a per-process private log in PM, plus a
// KernFS shared area the log is digested into.
//
// The property the paper measures against: append-dominated workloads
// cannot be coalesced at digest time, so every byte is written twice —
// once to the private log and once to the shared area — doubling write IO
// and PM wear (§2.3, §5.8, Table 7). Overwrite-heavy workloads coalesce
// well and digest less than they logged.
//
// Simplifications (documented in DESIGN.md): metadata operations pass
// through to the shared area immediately instead of being logged and
// digested (visibility is single-process in this reproduction and the
// guarantee — synchronous, atomic — is unchanged); the digest runs
// synchronously when the private log crosses its high-water mark rather
// than on a background KernFS thread.
package strata

import (
	"encoding/binary"
	"sort"
	"sync"

	"splitfs/internal/logfs"
	"splitfs/internal/metalog"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Config sizes the Strata regions.
type Config struct {
	// PrivateLogBytes is the per-process update log (paper: up to 20 GB;
	// default here 8 MB).
	PrivateLogBytes int64
	// DigestAt is the log fill fraction (in percent) that triggers a
	// digest (default 75).
	DigestAt int
	// Shared configures the KernFS shared area.
	Shared logfs.Config
}

func (c *Config) fill() {
	if c.PrivateLogBytes == 0 {
		c.PrivateLogBytes = 8 << 20
	}
	if c.DigestAt == 0 {
		c.DigestAt = 75
	}
}

// Stats counts Strata-specific activity.
type Stats struct {
	LogAppends  int64
	LoggedBytes int64 // data bytes written to the private log
	Digests     int64
	DigestBytes int64 // data bytes copied into the shared area
}

// interval is one logged write: file range backed by log bytes.
type interval struct {
	off    int64 // file offset
	length int64
	logOff int64 // device offset of the data inside the private log
}

// FS is a mounted Strata instance.
type FS struct {
	dev *pmem.Device
	clk *sim.Clock
	cfg Config

	shared *logfs.FS

	mu       sync.Mutex
	plog     *metalog.Log
	overlay  map[uint64][]interval // ino -> logged writes, oldest first
	sizeOver map[uint64]int64      // ino -> size including logged appends
	stats    Stats
}

var _ vfs.FileSystem = (*FS)(nil)

func sharedProfile() logfs.Profile {
	return logfs.Profile{
		Name:         "strata-shared",
		FenceMode:    metalog.SingleFence,
		PerOpCPU:     sim.PMFSJournal,
		WritePathCPU: sim.StrataDigest,
		ReadPathCPU:  sim.EngineReadPath,
	}
}

// New formats dev as a Strata file system.
func New(dev *pmem.Device, cfg Config) *FS {
	cfg.fill()
	cfg.Shared.ReserveTail = cfg.PrivateLogBytes
	fs := &FS{
		dev: dev, clk: dev.Clock(), cfg: cfg,
		shared:   logfs.New(dev, sharedProfile(), cfg.Shared),
		overlay:  map[uint64][]interval{},
		sizeOver: map[uint64]int64{},
	}
	fs.plog = metalog.New(dev, dev.Size()-cfg.PrivateLogBytes, cfg.PrivateLogBytes, sim.CatOpLog)
	return fs
}

// Mount recovers a Strata file system: the shared area recovers via its
// own snapshot+log, then the private log is replayed into the overlay.
func Mount(dev *pmem.Device, cfg Config) (*FS, int, error) {
	cfg.fill()
	cfg.Shared.ReserveTail = cfg.PrivateLogBytes
	shared, _, err := logfs.Mount(dev, sharedProfile(), cfg.Shared)
	if err != nil {
		return nil, 0, err
	}
	fs := &FS{
		dev: dev, clk: dev.Clock(), cfg: cfg,
		shared:   shared,
		overlay:  map[uint64][]interval{},
		sizeOver: map[uint64]int64{},
	}
	logStart := dev.Size() - cfg.PrivateLogBytes
	var records [][]byte
	fs.plog, records = metalog.Load(dev, logStart, cfg.PrivateLogBytes, sim.CatOpLog)
	// Rebuild the overlay. Record payloads hold (ino, off, len) with the
	// data inline; we recompute each record's data device offset by
	// replaying append positions.
	cursor := logStart + sim.CacheLine // metalog tailSlot
	for _, rec := range records {
		ino := binary.LittleEndian.Uint64(rec[0:8])
		off := int64(binary.LittleEndian.Uint64(rec[8:16]))
		length := int64(binary.LittleEndian.Uint64(rec[16:24]))
		dataOff := cursor + 16 /* metalog header */ + 24 /* our header */
		fs.addInterval(ino, interval{off: off, length: length, logOff: dataOff})
		cursor += recLen(len(rec))
	}
	return fs, len(records), nil
}

// recLen mirrors metalog's 64-byte record rounding.
func recLen(payload int) int64 {
	return (int64(payload) + 16 + sim.CacheLine - 1) / sim.CacheLine * sim.CacheLine
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "strata" }

// Device returns the underlying device.
func (fs *FS) Device() *pmem.Device { return fs.dev }

// Shared returns the KernFS shared area the private log is digested into.
func (fs *FS) Shared() *logfs.FS { return fs.shared }

// Stats returns Strata counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

func (fs *FS) addInterval(ino uint64, iv interval) {
	fs.overlay[ino] = append(fs.overlay[ino], iv)
	if end := iv.off + iv.length; end > fs.sizeOver[ino] {
		fs.sizeOver[ino] = end
	}
}

// logWrite appends one write record (header + data) to the private log
// and returns the device offset of the data portion.
func (fs *FS) logWrite(ino uint64, off int64, data []byte) (int64, error) {
	payload := make([]byte, 24+len(data))
	binary.LittleEndian.PutUint64(payload[0:8], ino)
	binary.LittleEndian.PutUint64(payload[8:16], uint64(off))
	binary.LittleEndian.PutUint64(payload[16:24], uint64(len(data)))
	copy(payload[24:], data)
	fs.clk.Charge(sim.StrataLogAppend)
	logStart := fs.dev.Size() - fs.cfg.PrivateLogBytes
	dataOff := logStart + sim.CacheLine + fs.plog.Used() + 16 + 24
	if err := fs.plog.Append(payload, metalog.SingleFence); err != nil {
		// Log full: digest and retry once.
		fs.digestLocked()
		dataOff = logStart + sim.CacheLine + fs.plog.Used() + 16 + 24
		if err := fs.plog.Append(payload, metalog.SingleFence); err != nil {
			return 0, err
		}
	}
	fs.stats.LogAppends++
	fs.stats.LoggedBytes += int64(len(data))
	return dataOff, nil
}

// digestLocked coalesces the private log into the shared area. Caller
// holds fs.mu.
func (fs *FS) digestLocked() {
	fs.stats.Digests++
	inos := make([]uint64, 0, len(fs.overlay))
	for ino := range fs.overlay {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		fs.digestIno(ino)
	}
	fs.overlay = map[uint64][]interval{}
	fs.sizeOver = map[uint64]int64{}
	fs.plog.Reset()
}

// digestIno coalesces one inode's intervals (newest wins) and writes each
// surviving segment once into the shared file — the second data write the
// paper charges Strata for.
func (fs *FS) digestIno(ino uint64) {
	ivs := fs.overlay[ino]
	if len(ivs) == 0 {
		return
	}
	path, ok := fs.pathOf(ino)
	if !ok {
		return // file was unlinked; its log data dies here
	}
	// Coalesce newest-first, clipping against already-covered ranges.
	type seg struct{ off, length, logOff int64 }
	var covered []seg
	clip := func(iv interval) []seg {
		pending := []seg{{iv.off, iv.length, iv.logOff}}
		for _, c := range covered {
			var next []seg
			for _, p := range pending {
				pEnd, cEnd := p.off+p.length, c.off+c.length
				if pEnd <= c.off || p.off >= cEnd {
					next = append(next, p)
					continue
				}
				if p.off < c.off {
					next = append(next, seg{p.off, c.off - p.off, p.logOff})
				}
				if pEnd > cEnd {
					next = append(next, seg{cEnd, pEnd - cEnd, p.logOff + (cEnd - p.off)})
				}
			}
			pending = next
		}
		return pending
	}
	var out []seg
	for i := len(ivs) - 1; i >= 0; i-- {
		segs := clip(ivs[i])
		out = append(out, segs...)
		covered = append(covered, segs...)
	}
	// Write segments in file order through the shared (KernFS) file.
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	f, err := fs.shared.OpenFile(path, vfs.O_RDWR, 0)
	if err != nil {
		return
	}
	defer f.Close()
	for _, s := range out {
		buf := make([]byte, s.length)
		fs.dev.ReadAt(buf, s.logOff, sim.CatPMData)
		if _, err := f.WriteAt(buf, s.off); err != nil {
			break
		}
		fs.stats.DigestBytes += s.length
	}
}

// pathOf finds the shared-area path of an inode (reverse lookup through
// the shared namespace). Strata keeps this mapping in its DRAM inode
// cache; a walk is adequate at reproduction scale.
func (fs *FS) pathOf(ino uint64) (string, bool) {
	var found string
	var walk func(dir string) bool
	walk = func(dir string) bool {
		ents, err := fs.shared.ReadDir(dir)
		if err != nil {
			return false
		}
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.Ino == ino && !e.IsDir {
				found = p
				return true
			}
			if e.IsDir && walk(p) {
				return true
			}
		}
		return false
	}
	if walk("/") {
		return found, true
	}
	return "", false
}

// Digest forces a synchronous digest (exposed for benchmarks and tests).
func (fs *FS) Digest() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.digestLocked()
}

// digestIfNeeded runs a digest past the high-water mark. Caller holds
// fs.mu.
func (fs *FS) digestIfNeeded() {
	if fs.plog.Used()*100 >= fs.plog.Capacity()*int64(fs.cfg.DigestAt) {
		fs.digestLocked()
	}
}

// flushIno digests before metadata operations that would invalidate the
// overlay (unlink, truncate, rename). Caller holds fs.mu.
func (fs *FS) flushIno(ino uint64) {
	if len(fs.overlay[ino]) > 0 {
		fs.digestLocked()
	}
}
