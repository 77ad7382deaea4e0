package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	rootfs "splitfs"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

const blk = sim.BlockSize

// spec is what is frozen per workload: the composite operations per
// client per second of nominal timed phase, measured on the 2-core
// container the benchmark was calibrated on (README, "Frozen step
// rates"), and how often the critical op is timed. Counts, not seconds,
// bound the timed phase, so every simulated-domain number of a seed
// repeats to the last digit.
type spec struct {
	stepsPerS int64
	every     int // time every k-th critical op
}

var specs = map[string]spec{
	"append-fsync": {stepsPerS: 9_500, every: 1},
	"rw-inplace":   {stepsPerS: 150_000, every: 32},
	"meta-churn":   {stepsPerS: 9_500, every: 1},
	"served-mix":   {stepsPerS: 4_000, every: 1},
}

var workloadNames = []string{"append-fsync", "rw-inplace", "meta-churn", "served-mix"}

// warmFrac of the timed step count runs inside every set-up, so staging
// files have been recycled, mappings faulted in and leases granted
// before the clock starts.
const warmFrac = 0.05

// tracedCalls bounds the calls one client makes in the traced half of
// its rounds: no workload averages more than 2.2 calls a step.
func tracedCalls(steps int64) int64 { return steps*12/10 + nRounds }

func timedSteps(name string, seconds float64) int64 {
	return max(int64(float64(specs[name].stepsPerS)*seconds), nRounds)
}

func newWorkload(cfg config) (workload, error) {
	steps := timedSteps(cfg.workload, cfg.seconds)
	warm := int64(float64(steps) * warmFrac)
	switch cfg.workload {
	case "append-fsync":
		return newAppendFsync(cfg, steps, warm)
	case "rw-inplace":
		return newRWInplace(cfg, steps, warm)
	case "meta-churn":
		return newMetaChurn(cfg, steps, warm)
	case "served-mix":
		return newServedMix(cfg, steps, warm)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// pool is the seed's content: every write's payload is a slice of it
// chosen by the write's id, so the expected bytes of any block follow
// from the seed and the id of its last writer, and the timed loop
// neither generates nor copies payloads.
type pool []byte

const poolBytes = 1 << 20

func newPool(seed uint64) pool {
	p := make(pool, poolBytes+blk)
	r := sim.NewRNG(seed ^ 0x706f6f6c)
	for i := 0; i+8 <= len(p); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p pool) at(id uint64, n int) []byte {
	off := mix64(id) % poolBytes &^ 7
	return p[off : off+uint64(n)]
}

// deck deals the op kinds of a mix in shuffled hands: every len(kinds)
// steps hold each kind exactly as often as the mix says, and the seed
// chooses only their order and arguments. Two seeds then run the same
// amount of every op, which is why the simulated metrics of different
// seeds agree to a fraction of a percent instead of to a few.
type deck struct {
	kinds []uint8
	next  int
}

// newDeck holds count[k] cards of kind k.
func newDeck(count ...int) *deck {
	d := &deck{}
	for k, n := range count {
		for i := 0; i < n; i++ {
			d.kinds = append(d.kinds, uint8(k))
		}
	}
	return d
}

func (d *deck) draw(r *sim.RNG) uint8 {
	if d.next == 0 {
		for i := len(d.kinds) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i]
		}
	}
	k := d.kinds[d.next]
	d.next = (d.next + 1) % len(d.kinds)
	return k
}

// Write ids: the low bits count a client's writes, the high bits say
// which file or phase they belong to, so no two writes share an id.
const (
	idPreload = 1 << 40
	idSession = 1 << 48
)

// direct is the stack of a workload that calls splitfs in-process.
type direct struct {
	st *rootfs.Stack
	fs vfs.FileSystem // what the driver calls: st.FS, or its traced decorator
	tr *tracer
	c  client
}

func newDirect(cfg config, mode splitfs.Mode, devBytes int64, track bool, steps int64) (*direct, error) {
	st, err := rootfs.NewStack(rootfs.StackConfig{DeviceBytes: devBytes, Mode: mode, TrackPersistence: track})
	if err != nil {
		return nil, err
	}
	d := &direct{st: st, fs: st.FS}
	d.c.steps = steps
	if cfg.trace {
		d.tr = newTracer()
		d.tr.clk, d.tr.dev = st.Clock, st.Device
		s := d.tr.sink("vfs", 0, tracedCalls(steps), true)
		d.fs = &tracedFS{inner: st.FS, sinkFor: func(string) *sink { return s }}
		d.c.sinks = []*sink{s}
	}
	return d, nil
}

func (d *direct) clients() []*client { return []*client{&d.c} }

func (d *direct) layers() layers {
	return layers{dev: d.st.Device, clk: d.st.Clock, kfs: d.st.KFS, ufs: d.st.FS, tr: d.tr}
}

func (d *direct) close() error { return d.st.FS.Close() }

// readFull reads exactly len(p) bytes at off.
func readFull(f vfs.File, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if n != len(p) {
		return fmt.Errorf("read %s at %d: %d of %d bytes: %v", f.Path(), off, n, len(p), err)
	}
	return nil
}

// checkBlocks compares a file's first len(ids) blocks of size bs with
// the pool slices their last writers' ids select.
func checkBlocks(f vfs.File, p pool, bs int, n int, id func(i int) uint64) error {
	const batch = 256
	buf := make([]byte, batch*bs)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		if err := readFull(f, buf[:(hi-lo)*bs], int64(lo)*int64(bs)); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if !bytes.Equal(buf[(i-lo)*bs:(i-lo+1)*bs], p.at(id(i), bs)) {
				return fmt.Errorf("%s: block %d (size %d) does not hold what write %#x stored", f.Path(), i, bs, id(i))
			}
		}
	}
	return nil
}

func checkSize(f vfs.File, want int64) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size != want {
		return fmt.Errorf("%s: size %d, want %d", f.Path(), fi.Size, want)
	}
	return nil
}

// checkNames compares a directory listing with the expected names.
func checkNames(fs vfs.FileSystem, dir string, want []string) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%s holds %v, want %v", dir, got, want)
	}
	return nil
}

// ---------------------------------------------------------------------
// append-fsync: the paper's headline path. 4 KB appends to a rotating
// segment, one fsync in every eight (after which of the eight is the
// seed's choice), close+unlink+create at 16 MB.

const segBytes = 16 << 20

type appendFsync struct {
	*direct
	pool     pool
	rng      *sim.RNG
	fsyncs   *deck // one fsync in eight appends
	f        vfs.File
	seg      int64
	segFirst uint64 // id of the append that wrote the segment's block 0
	size     int64  // bytes appended to the current segment
	synced   int64  // of which this many were covered by an fsync
	appends  uint64
}

func segPath(seg int64) string { return fmt.Sprintf("/segs/seg-%06d", seg) }

func newAppendFsync(cfg config, steps, warm int64) (*appendFsync, error) {
	d, err := newDirect(cfg, splitfs.Strict, 256<<20, true, steps)
	if err != nil {
		return nil, err
	}
	w := &appendFsync{direct: d, pool: newPool(cfg.seed), rng: sim.NewRNG(cfg.seed), fsyncs: newDeck(7, 1)}
	if err := d.fs.Mkdir("/segs", 0o755); err != nil {
		return nil, err
	}
	if w.f, err = d.fs.OpenFile(segPath(0), vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	w.c.step = w.step
	w.c.initSampling((steps+warm)/4, specs[cfg.workload].every)
	return w, w.c.warm(warm)
}

func (w *appendFsync) step() {
	c := &w.c
	c.note(opWrite, w.seg, w.size)
	n, err := w.f.Write(w.pool.at(w.appends, blk))
	c.checkIO(n, blk, err)
	c.wbytes += blk
	w.appends++
	w.size += blk
	if w.fsyncs.draw(w.rng) == 1 {
		c.note(opFsync, w.seg, w.size)
		t0 := time.Now()
		err := w.f.Sync()
		c.observe(t0)
		c.check(err)
		w.synced = w.size
	}
	if w.size < segBytes {
		return
	}
	c.note(opClose, w.seg, 0)
	c.check(w.f.Close())
	c.note(opUnlink, w.seg, 0)
	c.check(w.fs.Unlink(segPath(w.seg)))
	w.seg++
	c.note(opOpen, w.seg, 0)
	f, err := w.fs.OpenFile(segPath(w.seg), vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0o644)
	c.check(err)
	if err == nil {
		w.f = f
	}
	w.segFirst, w.size, w.synced = w.appends, 0, 0
}

func (w *appendFsync) verifySegment(fs vfs.FileSystem, minSize int64) error {
	if err := checkNames(fs, "/segs", []string{segPath(w.seg)[len("/segs/"):]}); err != nil {
		return err
	}
	f, err := vfs.Open(fs, segPath(w.seg))
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size < minSize || fi.Size > w.size || fi.Size%blk != 0 {
		return fmt.Errorf("%s: size %d, want a whole number of appends in [%d, %d]", f.Path(), fi.Size, minSize, w.size)
	}
	return checkBlocks(f, w.pool, blk, int(fi.Size/blk), func(i int) uint64 { return w.segFirst + uint64(i) })
}

func (w *appendFsync) verify() error { return w.verifySegment(w.st.FS, w.size) }

// crashCheck pulls the plug with torn cache lines, recovers, and checks
// that every byte an fsync covered (strict mode promises every completed
// append) is back. It returns what recovery cost in both time domains.
func (w *appendFsync) crashCheck(seed uint64) (hostMs, simUs float64, err error) {
	if err := w.st.Crash(seed | 1); err != nil {
		return 0, 0, err
	}
	sim0 := w.st.Clock.Now()
	t0 := time.Now()
	rec, _, err := w.st.Recover(splitfs.Strict)
	if err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	hostMs = float64(time.Since(t0)) / 1e6
	simUs = float64(w.st.Clock.Now()-sim0) / 1e3
	w.st = rec
	return hostMs, simUs, w.verifySegment(rec.FS, w.synced)
}

// ---------------------------------------------------------------------
// rw-inplace: the bypass workload. Uniform-random 4 KB pread/pwrite,
// half and half, over a preallocated 64 MB file on splitfs-posix.

const rwBlocks = 64 << 20 / blk

type rwInplace struct {
	*direct
	pool   pool
	rng    *sim.RNG
	f      vfs.File
	buf    []byte
	writes uint64
	last   []uint64 // per block: id of its last writer
}

// preload writes n blocks of bs bytes with preload ids, in 1 MB calls.
func preload(f vfs.File, p pool, base uint64, bs, n int) error {
	chunk := make([]byte, 0, 1<<20)
	for i := 0; i < n; i++ {
		chunk = append(chunk, p.at(base+uint64(i), bs)...)
		if len(chunk) == cap(chunk) || i == n-1 {
			if _, err := f.Write(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	return f.Sync()
}

func newRWInplace(cfg config, steps, warm int64) (*rwInplace, error) {
	d, err := newDirect(cfg, splitfs.POSIX, 256<<20, false, steps)
	if err != nil {
		return nil, err
	}
	w := &rwInplace{direct: d, pool: newPool(cfg.seed), rng: sim.NewRNG(cfg.seed),
		buf: make([]byte, blk), last: make([]uint64, rwBlocks)}
	if w.f, err = d.fs.OpenFile("/data", vfs.O_CREATE|vfs.O_RDWR, 0o644); err != nil {
		return nil, err
	}
	if err := preload(w.f, w.pool, idPreload, blk, rwBlocks); err != nil {
		return nil, err
	}
	for i := range w.last {
		w.last[i] = idPreload + uint64(i)
	}
	w.c.step = w.step
	w.c.initSampling((steps+warm)/2, specs[cfg.workload].every)
	return w, w.c.warm(warm)
}

func (w *rwInplace) step() {
	c := &w.c
	r := w.rng.Uint64()
	b := int64(r >> 32 % rwBlocks)
	if r&1 == 0 {
		c.note(opRead, b, 0)
		var n int
		var err error
		if c.sample() {
			t0 := time.Now()
			n, err = w.f.ReadAt(w.buf, b*blk)
			c.observe(t0)
		} else {
			n, err = w.f.ReadAt(w.buf, b*blk)
		}
		c.checkIO(n, blk, err)
		return
	}
	c.note(opWrite, b, int64(w.writes))
	n, err := w.f.WriteAt(w.pool.at(w.writes, blk), b*blk)
	c.checkIO(n, blk, err)
	c.wbytes += blk
	w.last[b] = w.writes
	w.writes++
}

func (w *rwInplace) verify() error {
	if err := checkSize(w.f, rwBlocks*blk); err != nil {
		return err
	}
	return checkBlocks(w.f, w.pool, blk, rwBlocks, func(i int) uint64 { return w.last[i] })
}

func (w *rwInplace) close() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.direct.close()
}

// ---------------------------------------------------------------------
// meta-churn: varmail-style namespace churn on splitfs-sync over a
// bounded population of 16 directories x 64 names.

const (
	metaDirs  = 16
	metaNames = 64
	metaSlots = metaDirs * metaNames
)

type metaSlot struct {
	exists bool
	id     uint64 // id of the write that filled it
	size   int
}

type metaChurn struct {
	*direct
	pool   pool
	rng    *sim.RNG
	mix    *deck
	paths  [metaSlots]string
	slots  [metaSlots]metaSlot
	live   int
	writes uint64
}

func newMetaChurn(cfg config, steps, warm int64) (*metaChurn, error) {
	d, err := newDirect(cfg, splitfs.Sync, 256<<20, false, steps)
	if err != nil {
		return nil, err
	}
	w := &metaChurn{direct: d, pool: newPool(cfg.seed), rng: sim.NewRNG(cfg.seed),
		mix: newDeck(4, 2, 2, 2)} // create, stat, rename, unlink
	for dir := 0; dir < metaDirs; dir++ {
		if err := d.fs.Mkdir(fmt.Sprintf("/d%02d", dir), 0o755); err != nil {
			return nil, err
		}
		for n := 0; n < metaNames; n++ {
			w.paths[dir*metaNames+n] = fmt.Sprintf("/d%02d/f%02d", dir, n)
		}
	}
	w.c.step = w.step
	w.c.initSampling((steps+warm)/2, specs[cfg.workload].every)
	// Start at the mix's equilibrium population, a third of the slots.
	for w.live < metaSlots/3 {
		w.create(int(w.rng.Uint64() % metaSlots))
	}
	return w, w.c.warm(warm)
}

// existing returns the first live slot at or after s, cyclically.
func (w *metaChurn) existing(s int) int {
	for !w.slots[s].exists {
		s = (s + 1) % metaSlots
	}
	return s
}

func (w *metaChurn) step() {
	r := w.rng.Uint64()
	s := int(r >> 32 % metaSlots)
	kind := w.mix.draw(w.rng)
	if w.live < metaSlots/8 {
		kind = 0 // cannot happen at equilibrium; keeps every op valid regardless
	}
	c := &w.c
	switch kind {
	case 0:
		w.create(s)
	case 1:
		s = w.existing(s)
		c.note(opStat, int64(s), 0)
		fi, err := w.fs.Stat(w.paths[s])
		if err == nil && fi.Size != int64(w.slots[s].size) {
			err = fmt.Errorf("stat %s: size %d, want %d", w.paths[s], fi.Size, w.slots[s].size)
		}
		c.check(err)
	case 2:
		s = w.existing(s)
		dst := int(r >> 16 % metaSlots)
		if dst == s {
			dst = (dst + 1) % metaSlots
		}
		c.note(opRename, int64(s), int64(dst))
		c.check(w.fs.Rename(w.paths[s], w.paths[dst]))
		if !w.slots[dst].exists {
			w.live++
		}
		w.slots[dst] = w.slots[s]
		w.slots[s] = metaSlot{}
		w.live--
	default:
		s = w.existing(s)
		c.note(opUnlink, int64(s), 0)
		c.check(w.fs.Unlink(w.paths[s]))
		w.slots[s] = metaSlot{}
		w.live--
	}
}

// create is open(O_CREATE|O_TRUNC) + write(1-4 KB) + fsync + close.
func (w *metaChurn) create(s int) {
	c := &w.c
	size := 1024 * (1 + int(w.writes%4))
	c.note(opOpen, int64(s), int64(size))
	t0 := time.Now()
	f, err := w.fs.OpenFile(w.paths[s], vfs.O_CREATE|vfs.O_TRUNC|vfs.O_WRONLY, 0o644)
	c.observe(t0)
	c.check(err)
	if err != nil {
		return
	}
	c.note(opWrite, int64(s), int64(w.writes))
	n, err := f.Write(w.pool.at(w.writes, size))
	c.checkIO(n, size, err)
	c.wbytes += int64(size)
	c.note(opFsync, int64(s), 0)
	c.check(f.Sync())
	c.note(opClose, int64(s), 0)
	c.check(f.Close())
	if !w.slots[s].exists {
		w.live++
	}
	w.slots[s] = metaSlot{exists: true, id: w.writes, size: size}
	w.writes++
}

func (w *metaChurn) verify() error {
	for dir := 0; dir < metaDirs; dir++ {
		var want []string
		for n := 0; n < metaNames; n++ {
			s := dir*metaNames + n
			if !w.slots[s].exists {
				continue
			}
			want = append(want, w.paths[s][len("/d00/"):])
			got, err := vfs.ReadFile(w.st.FS, w.paths[s])
			if err != nil {
				return err
			}
			if !bytes.Equal(got, w.pool.at(w.slots[s].id, w.slots[s].size)) {
				return fmt.Errorf("%s does not hold what write %d stored", w.paths[s], w.slots[s].id)
			}
		}
		if err := checkNames(w.st.FS, w.paths[dir*metaNames][:len("/d00")], want); err != nil {
			return err
		}
	}
	return nil
}
