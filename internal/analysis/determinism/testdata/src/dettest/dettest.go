// Package dettest exercises the determinism analyzer against the real
// device model.
package dettest

import (
	"math/rand"
	"sort"
	"time"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Wallclock reads wall time without the file flag.
func Wallclock() (time.Time, time.Duration) {
	now := time.Now()           // want `wall-clock time.Now in deterministic package`
	return now, time.Since(now) // want `wall-clock time.Since in deterministic package`
}

// GlobalRand draws from the globally seeded source.
func GlobalRand() int {
	return rand.Intn(10) // want `globally seeded math/rand.Intn in deterministic package`
}

// SeededRand is the approved pattern.
func SeededRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

// Spawn starts a goroutine in an unflagged file.
func Spawn(ch chan struct{}) {
	go func() { close(ch) }() // want `goroutine spawn in deterministic package`
}

// EmitAll stores every entry of m — in map order.
func EmitAll(dev *pmem.Device, m map[int64][]byte) {
	for off, p := range m { // want `map iteration emits persistence/I-O events in random order`
		dev.Persist(off, p, sim.CatPMData)
	}
}

// EmitSourced stores through a write path that names its event source.
func EmitSourced(dev *pmem.Device, m map[int64][]byte) {
	w := dev.As(pmem.SrcRelinkWorker)
	for off, p := range m { // want `map iteration emits persistence/I-O events in random order`
		w.StoreNT(off, p, sim.CatPMData)
	}
}

// CrashAll crashes a device at each point of a map: each crash reverts
// or tears what the previous one left, so the images depend on the order.
// CrashPoint.Crash emits by the fact pmem's own analysis derives: it
// resets the read cursor (Device.Crash) and records an event (PersistNT).
func CrashAll(dev *pmem.Device, points map[int]pmem.CrashPoint) {
	for _, p := range points { // want `map iteration emits persistence/I-O events in random order`
		p.Crash(dev)
	}
}

// PeekAll only looks at the volatile view, which neither records an
// event nor moves the read cursor: any order reads the same bytes.
func PeekAll(dev *pmem.Device, m map[int64][]byte) {
	for off, p := range m {
		dev.Peek(p, off)
	}
}

// emitHelper reaches the device one call deep.
func emitHelper(dev *pmem.Device) {
	dev.Fence()
}

// EmitTransitive emits through a same-package helper.
func EmitTransitive(dev *pmem.Device, m map[int]bool) {
	for range m { // want `map iteration emits persistence/I-O events in random order`
		emitHelper(dev)
	}
}

// SyncAll reaches the medium through a vfs interface method.
func SyncAll(files map[string]vfs.File) {
	for _, f := range files { // want `map iteration emits persistence/I-O events in random order`
		f.Sync()
	}
}

// BadAppend replays map order into a slice that is never sorted.
func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration appends to "keys" in random order`
		keys = append(keys, k)
	}
	return keys
}

// overlayFS keeps per-inode state in a map, as strata's digest does.
type overlayFS struct {
	dev     *pmem.Device
	overlay map[uint64][]byte
}

// DigestUnsorted is strata's digest without its sort (DESIGN.md "Static
// analysis", mutant D2): the inodes are collected from a map, then each
// digested, which emits, in map order. No tier-1 test notices.
func (fs *overlayFS) DigestUnsorted() {
	inos := make([]uint64, 0, len(fs.overlay))
	for ino := range fs.overlay { // want `map iteration appends to "inos" in random order`
		inos = append(inos, ino)
	}
	for _, ino := range inos {
		fs.dev.Persist(int64(ino), fs.overlay[ino], sim.CatPMData)
	}
}

// fdEntry is one descriptor of a table.
type fdEntry struct {
	file vfs.File
	refs int
}

// CloseAllUnsorted is the fd table's CloseAll without its sort (mutant D3):
// the files whose last reference went are closed in map order. No tier-1
// test notices.
func CloseAllUnsorted(fds map[int]*fdEntry) {
	var files []vfs.File
	for fd, e := range fds { // want `map iteration appends to "files" in random order`
		delete(fds, fd)
		if e.refs--; e.refs == 0 {
			files = append(files, e.file)
		}
	}
	for _, f := range files {
		f.Close()
	}
}

// SortedAppend is the canonical sort-after-collect idiom.
func SortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// InnerAppend grows a slice that dies inside the loop body: order never
// escapes.
func InnerAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// PureCount is order-insensitive map iteration.
func PureCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// AnnotatedUnordered carries the reviewed commutativity annotation.
func AnnotatedUnordered(dev *pmem.Device, m map[int64][]byte) {
	// +determinism:unordered
	for off, p := range m {
		dev.Persist(off, p, sim.CatPMData)
	}
}

// Suppressed carries a reviewed suppression instead.
func Suppressed() time.Time {
	//lint:ignore splitfs-determinism golden test exercises suppression
	return time.Now()
}
