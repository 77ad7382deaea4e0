package crash

import (
	"fmt"
	"slices"
	"strings"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
)

// OpKind selects what a workload operation does. The zero value is
// OpWrite, so legacy write-only campaigns keep constructing Op literals
// unchanged.
type OpKind int

const (
	// OpWrite writes Data at Off (-1 = append), optionally fsyncs.
	OpWrite OpKind = iota
	// OpCreate ensures Path exists (open with O_CREATE).
	OpCreate
	// OpUnlink removes Path. With Close=false while a handle is open it
	// exercises the unlink-while-open orphan path.
	OpUnlink
	// OpRename moves Path to Path2, replacing a file at Path2.
	OpRename
	// OpTruncate truncates Path to Size.
	OpTruncate
	// OpMkdir creates directory Path.
	OpMkdir
	// OpSyncAll fsyncs every open file at once (splitfs.SyncAll): all
	// files' relink batches share one group-committed journal
	// transaction. On backends without a SyncAll, it degrades to fsync
	// of each open handle in path order.
	OpSyncAll
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpUnlink:
		return "unlink"
	case OpRename:
		return "rename"
	case OpTruncate:
		return "truncate"
	case OpMkdir:
		return "mkdir"
	case OpSyncAll:
		return "syncall"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one workload operation for the campaign.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename destination
	Off   int64  // -1 means append at current size
	Size  int64  // truncate target size
	Data  []byte
	Fsync bool
	// Close closes the operation's file handle afterwards (for OpUnlink:
	// before the unlink, making it a clean delete; without it an open
	// handle makes the unlink exercise the orphan-inode path).
	Close bool
}

// A workload Op expands into POSIX syscalls — open, write, fsync, close,
// unlink, rename, truncate, mkdir. Syscalls are the atomicity unit of
// the crash oracles (a crash between the open and the write of one Op
// legitimately leaves a created-but-empty file), so the model snapshots
// state per syscall, and the harness records the persistence-event
// counter per syscall.
type sysKind int

const (
	sysOpen sysKind = iota
	sysWrite
	sysFsync
	sysClose
	sysUnlink
	sysRename
	sysTruncate
	sysMkdir
	sysSyncall
)

func (k sysKind) String() string {
	return [...]string{"open", "write", "fsync", "close", "unlink",
		"rename", "truncate", "mkdir", "syncall"}[k]
}

type syscall struct {
	kind  sysKind
	path  string
	path2 string
	off   int64
	size  int64
	data  []byte
	opIdx int // 1-based index of the Op this syscall came from
}

// compile expands ops into the syscall sequence the executor will issue,
// tracking which paths have open handles (the executor follows the same
// rules, so compilation is exact). orphan unlinks (Close=false with an
// open handle) drop the handle from the table without a close syscall.
func compile(ops []Op) []syscall {
	open := map[string]bool{}
	var out []syscall
	emit := func(s syscall) { out = append(out, s) }
	for i, op := range ops {
		idx := i + 1
		switch op.Kind {
		case OpWrite:
			if !open[op.Path] {
				emit(syscall{kind: sysOpen, path: op.Path, opIdx: idx})
				open[op.Path] = true
			}
			emit(syscall{kind: sysWrite, path: op.Path, off: op.Off, data: op.Data, opIdx: idx})
			if op.Fsync {
				emit(syscall{kind: sysFsync, path: op.Path, opIdx: idx})
			}
			if op.Close {
				emit(syscall{kind: sysClose, path: op.Path, opIdx: idx})
				delete(open, op.Path)
			}
		case OpCreate:
			if !open[op.Path] {
				emit(syscall{kind: sysOpen, path: op.Path, opIdx: idx})
				open[op.Path] = true
			}
			if op.Close {
				emit(syscall{kind: sysClose, path: op.Path, opIdx: idx})
				delete(open, op.Path)
			}
		case OpUnlink:
			if open[op.Path] && op.Close {
				emit(syscall{kind: sysClose, path: op.Path, opIdx: idx})
			}
			// Close=false with an open handle: the executor keeps the
			// handle open across the unlink (orphan inode, tmpfile
			// pattern) but the path no longer resolves to it.
			delete(open, op.Path)
			emit(syscall{kind: sysUnlink, path: op.Path, opIdx: idx})
		case OpRename:
			emit(syscall{kind: sysRename, path: op.Path, path2: op.Path2, opIdx: idx})
			// A replaced destination's handle becomes an orphan handle;
			// the source handle follows the file to its new name.
			if open[op.Path] {
				delete(open, op.Path)
				open[op.Path2] = true
			} else {
				delete(open, op.Path2)
			}
		case OpTruncate:
			if !open[op.Path] {
				emit(syscall{kind: sysOpen, path: op.Path, opIdx: idx})
				open[op.Path] = true
			}
			emit(syscall{kind: sysTruncate, path: op.Path, size: op.Size, opIdx: idx})
			if op.Close {
				emit(syscall{kind: sysClose, path: op.Path, opIdx: idx})
				delete(open, op.Path)
			}
		case OpMkdir:
			emit(syscall{kind: sysMkdir, path: op.Path, opIdx: idx})
		case OpSyncAll:
			emit(syscall{kind: sysSyncall, opIdx: idx})
		}
	}
	return out
}

// sysPrefix returns how many syscalls the first n ops compile to.
func sysPrefix(sys []syscall, n int) int {
	for i, s := range sys {
		if s.opIdx > n {
			return i
		}
	}
	return len(sys)
}

// RandomOps builds a deterministic workload of writes/appends/fsyncs for
// campaign sweeps.
func RandomOps(seed uint64, n int) []Op { return dataOps(seed, n, randomMix) }

// AsyncOps builds a deterministic workload shaped for the fsync path:
// appends and overwrites spread over several files with frequent
// per-file fsyncs and periodic group syncs (OpSyncAll), so the
// persistence-event sweep crosses many relink and reclaim stages and
// multi-file group commits.
func AsyncOps(seed uint64, n int) []Op { return dataOps(seed, n, asyncMix) }

// dataMix shapes dataOps: the files written, the longest write, and the
// odds — one in — that an op is a group sync (0 = never), that a write to
// a non-empty file overwrites it and that a write fsyncs.
type dataMix struct {
	paths                             []string
	maxLen, syncAll, overwrite, fsync int
}

var (
	randomMix = dataMix{paths: []string{"/c0", "/c1", "/c2"}, maxLen: 3000, overwrite: 3, fsync: 4}
	asyncMix  = dataMix{paths: []string{"/a0", "/a1", "/a2", "/a3"}, maxLen: 2600, syncAll: 7, overwrite: 4, fsync: 3}
)

func dataOps(seed uint64, n int, mix dataMix) []Op {
	rng := sim.NewRNG(seed)
	sizes := map[string]int64{}
	ops := make([]Op, 0, n)
	for range n {
		if mix.syncAll > 0 && rng.Intn(mix.syncAll) == 0 {
			ops = append(ops, Op{Kind: OpSyncAll})
			continue
		}
		p := mix.paths[rng.Intn(len(mix.paths))]
		var w Op
		w, sizes[p] = randomWrite(rng, p, sizes[p], mix.maxLen, mix.overwrite)
		w.Fsync = rng.Intn(mix.fsync) == 0
		ops = append(ops, w)
	}
	return ops
}

// randomWrite draws a write to path, a file of size bytes: 1 to maxLen
// random bytes, at a random offset one time in overwrite when the file
// has any, else appended. It returns the write and the file's size after
// it.
func randomWrite(rng *sim.RNG, path string, size int64, maxLen, overwrite int) (Op, int64) {
	data := randBytes(rng, rng.Intn(maxLen)+1)
	off := int64(-1)
	if size > 0 && rng.Intn(overwrite) == 0 {
		off = rng.Int63n(size)
	}
	end := off + int64(len(data))
	if off < 0 {
		end = size + int64(len(data))
	}
	return Op{Path: path, Off: off, Data: data}, max(size, end)
}

// randBytes draws n random bytes.
func randBytes(rng *sim.RNG, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(rng.Uint64())
	}
	return b
}

// fragmentMinOps is the least FragmentOps generates: what it takes, in
// every mode, for a file to outgrow its inode's inline extents with a
// third of the workload still to run. Two thirds of it, less the early
// write, is two appends — one per file, about an extent each — per inline
// extent, and the overwrites that come between.
const fragmentMinOps = 4*ext4dax.InlineExtents + 2

// FragmentOps builds a deterministic workload that fragments its files
// past the extents an inode record holds, so the sweep crashes inside
// write-backs that touch some extent-overflow blocks of an inode and not
// others: after one early 48-block write, fsynced appends of a block and
// a bit alternate between two files — each ends mid-block, so its relink
// moves the tail block and the next append cannot extend the extent — and
// now and then one block of the early write is overwritten, which in
// strict mode relinks a staged block into the middle of its extent. At
// least fragmentMinOps ops, whatever n says: the generator is for what
// happens past the inline extents.
func FragmentOps(seed uint64, n int) []Op {
	rng := sim.NewRNG(seed)
	const early = 48
	paths := []string{"/g0", "/g1"}
	ops := []Op{{Path: paths[0], Off: 0, Data: randBytes(rng, early*sim.BlockSize), Fsync: true}}
	for appends := 0; len(ops) < max(n, fragmentMinOps); {
		if rng.Intn(8) == 0 {
			ops = append(ops, Op{Path: paths[0], Off: int64(rng.Intn(early)) * sim.BlockSize,
				Data: randBytes(rng, sim.BlockSize), Fsync: rng.Intn(2) == 0})
			continue
		}
		ops = append(ops, Op{Path: paths[appends%2], Off: -1,
			Data: randBytes(rng, sim.BlockSize+1+rng.Intn(sim.BlockSize/2)), Fsync: true})
		appends++
	}
	return ops
}

// scatterEarly is ScatterOps' first write, in blocks: most of a
// stack.Small staging file's 256, so that the first round's reservations
// run off the file's end, in every mode.
const scatterEarly = 190

// ScatterOps builds a deterministic workload whose fsyncs relink many
// disjoint pieces at once, so the sweep crashes inside transactions that
// hold a multi-move relink vector: after one early write that nearly
// fills the first staging file, every round overwrites a few scattered
// whole blocks of it (staged in strict mode, in place elsewhere), appends
// some blocks and a bit, overwrites a block of that append while it is
// still staged (staged in every mode, and splitting the append in two),
// appends a block and a bit more and fsyncs. The pieces of the first
// round lie in two staging files (TestScatterOpsSpanStagingFiles); a
// round's appends start and end mid-block, so the vector travels with
// partial-block copies. Rounds are generated whole: a few ops more than n
// asks for.
func ScatterOps(seed uint64, n int) []Op {
	rng := sim.NewRNG(seed)
	const path = "/k0"
	size := int64(scatterEarly * sim.BlockSize)
	ops := []Op{{Path: path, Off: 0, Data: randBytes(rng, int(size)), Fsync: true}}
	for len(ops) < n {
		for k := 2 + rng.Intn(3); k > 0; k-- {
			ops = append(ops, Op{Path: path, Off: int64(rng.Intn(scatterEarly)) * sim.BlockSize, Data: randBytes(rng, sim.BlockSize)})
		}
		inside := (size + sim.BlockSize - 1) / sim.BlockSize * sim.BlockSize // the first block the append covers whole
		first, second := randBytes(rng, 2*sim.BlockSize+1+rng.Intn(sim.BlockSize)), randBytes(rng, sim.BlockSize+1+rng.Intn(sim.BlockSize/2))
		ops = append(ops,
			Op{Path: path, Off: -1, Data: first},
			Op{Path: path, Off: inside, Data: randBytes(rng, sim.BlockSize)},
			Op{Path: path, Off: -1, Data: second, Fsync: true})
		size += int64(len(first) + len(second))
	}
	return ops
}

// ServedOps builds a deterministic workload shaped for the served crash
// campaigns' resume discipline (see server.DialResumableConfig):
//
//   - names are never reused once unlinked or renamed away, so a
//     re-opened handle chain identifies at most one durable file;
//   - writes are appends at the tracked size, never O_APPEND ones, so a
//     replayed write is idempotent — an O_APPEND write lands wherever the
//     end is at replay, at-least-once across a server restart;
//   - unlinks close their handle first, because a cold re-attach
//     re-establishes handles by path and cannot rebuild orphans;
//   - periodic and final OpSyncAll barriers bound every tenant's replay
//     log (the resumable client truncates its log at each acked barrier).
func ServedOps(seed uint64, n int) []Op {
	rng := sim.NewRNG(seed)
	sizes := map[string]int64{}
	var live []string // live file paths in creation order
	var dirs []string
	nextFile, nextDir := 0, 0

	freshPath := func() string {
		d := ""
		if len(dirs) > 0 && rng.Intn(2) == 0 {
			d = dirs[rng.Intn(len(dirs))]
		}
		p := fmt.Sprintf("%s/s%d", d, nextFile)
		nextFile++
		return p
	}

	ops := make([]Op, 0, n+1)
	for len(ops) < n {
		roll := rng.Intn(100)
		if len(live) == 0 && roll >= 60 && roll < 86 {
			roll = 55 // nothing to rename/unlink: create instead
		}
		switch {
		case roll < 50:
			// Positional append to an existing or fresh file.
			var p string
			if len(live) > 0 && rng.Intn(4) != 0 {
				p = live[rng.Intn(len(live))]
			} else {
				p = freshPath()
				live = append(live, p)
			}
			d := randBytes(rng, rng.Intn(1800)+1)
			ops = append(ops, Op{Path: p, Off: sizes[p], Data: d,
				Fsync: rng.Intn(4) == 0, Close: rng.Intn(6) == 0})
			sizes[p] += int64(len(d))
		case roll < 60:
			p := freshPath()
			live = append(live, p)
			ops = append(ops, Op{Kind: OpCreate, Path: p, Close: rng.Intn(2) == 0})
		case roll < 74:
			// Rename to an always-fresh destination (never replacing).
			i := rng.Intn(len(live))
			src := live[i]
			dst := freshPath()
			live[i] = dst
			sizes[dst] = sizes[src]
			delete(sizes, src)
			ops = append(ops, Op{Kind: OpRename, Path: src, Path2: dst})
		case roll < 82:
			// Clean unlink: the handle (if any) closes first.
			i := rng.Intn(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			delete(sizes, p)
			ops = append(ops, Op{Kind: OpUnlink, Path: p, Close: true})
		case roll < 88:
			if len(dirs) >= 2 {
				continue // keep the tree small; reroll
			}
			d := fmt.Sprintf("/sd%d", nextDir)
			nextDir++
			dirs = append(dirs, d)
			ops = append(ops, Op{Kind: OpMkdir, Path: d})
		default:
			ops = append(ops, Op{Kind: OpSyncAll})
		}
	}
	if len(ops) == 0 || ops[len(ops)-1].Kind != OpSyncAll {
		ops = append(ops, Op{Kind: OpSyncAll})
	}
	return ops
}

// MetadataOps builds a deterministic workload mixing data writes with
// metadata operations — create, unlink (incl. unlink-while-open), rename
// (incl. replacing renames), truncate, mkdir — and per-op handle closes,
// driving the paths the per-mode metadata oracles check.
func MetadataOps(seed uint64, n int) []Op { return metadataOps(seed, n, metaMix) }

// MetaBurstOps is MetadataOps with the journal commits thinned out: few
// data writes, and an fsync or a close — the calls that commit K-Split's
// running transaction — only on every twelfth op that could carry one. So
// runs of several metadata operations that no commit has covered precede
// most crash points, and what makes them durable in sync and strict mode
// is the op log alone: the recovery under test has to redo them.
func MetaBurstOps(seed uint64, n int) []Op { return metadataOps(seed, n, burstMix) }

// opMix shapes metadataOps: the upper bounds, out of 100, of the rolls
// that pick a data write, a create, an unlink, a rename and a truncate
// (the rest are mkdirs), and the odds — one in — that a write fsyncs and
// that a write, a create or a truncate closes its handle.
type opMix struct {
	write, create, unlink, rename, truncate    int
	fsync, closeWrite, closeCreate, closeTrunc int
}

var (
	metaMix = opMix{write: 45, create: 55, unlink: 67, rename: 79, truncate: 88,
		fsync: 4, closeWrite: 5, closeCreate: 2, closeTrunc: 3}
	burstMix = opMix{write: 15, create: 35, unlink: 55, rename: 80, truncate: 88,
		fsync: 12, closeWrite: 12, closeCreate: 12, closeTrunc: 12}
)

func metadataOps(seed uint64, n int, mix opMix) []Op {
	rng := sim.NewRNG(seed)
	type fstate struct{ size int64 }
	files := map[string]*fstate{}
	dirs := []string{} // beyond "/"
	nextFile, nextDir := 0, 0

	fileNames := func() []string {
		// Deterministic iteration order: names are generated in sequence.
		var out []string
		for i := 0; i < nextFile; i++ {
			for _, d := range append([]string{""}, dirs...) {
				p := fmt.Sprintf("%s/f%d", d, i)
				if _, ok := files[p]; ok {
					out = append(out, p)
				}
			}
		}
		return out
	}
	// emptyDir returns the index of the first directory with none of the
	// live files and no directory below it, or -1.
	emptyDir := func(live []string) int {
		for i, d := range dirs {
			below := func(p string) bool { return strings.HasPrefix(p, d+"/") }
			if !slices.ContainsFunc(dirs, below) && !slices.ContainsFunc(live, below) {
				return i
			}
		}
		return -1
	}
	freshPath := func() string {
		d := ""
		if len(dirs) > 0 && rng.Intn(2) == 0 {
			d = dirs[rng.Intn(len(dirs))]
		}
		p := fmt.Sprintf("%s/f%d", d, nextFile)
		nextFile++
		return p
	}
	ops := make([]Op, 0, n)
	for len(ops) < n {
		live := fileNames()
		roll := rng.Intn(100)
		if len(live) == 0 && roll >= mix.create && roll < mix.truncate {
			roll = mix.write // nothing to unlink/rename/truncate: create instead
		}
		switch {
		case roll < mix.write:
			// Data write: mostly appends to an existing or fresh file.
			var p string
			if len(live) > 0 && rng.Intn(4) != 0 {
				p = live[rng.Intn(len(live))]
			} else {
				p = freshPath()
				files[p] = &fstate{}
			}
			f := files[p]
			var w Op
			w, f.size = randomWrite(rng, p, f.size, 2500, 3)
			w.Fsync, w.Close = rng.Intn(mix.fsync) == 0, rng.Intn(mix.closeWrite) == 0
			ops = append(ops, w)
		case roll < mix.create:
			p := freshPath()
			files[p] = &fstate{}
			ops = append(ops, Op{Kind: OpCreate, Path: p, Close: rng.Intn(mix.closeCreate) == 0})
		case roll < mix.unlink:
			p := live[rng.Intn(len(live))]
			delete(files, p)
			// Close=false keeps any open handle across the unlink: the
			// orphan-inode (tmpfile) path.
			ops = append(ops, Op{Kind: OpUnlink, Path: p, Close: rng.Intn(2) == 0})
		case roll < mix.rename:
			if src := emptyDir(live); src >= 0 && len(dirs) > 1 && rng.Intn(2) == 1 {
				// A directory moves under another one, and its ".." link
				// with it.
				if parent := dirs[rng.Intn(len(dirs))]; !strings.HasPrefix(parent+"/", dirs[src]+"/") {
					dst := fmt.Sprintf("%s/d%d", parent, nextDir)
					nextDir++
					ops = append(ops, Op{Kind: OpRename, Path: dirs[src], Path2: dst})
					dirs[src] = dst
					continue
				}
			}
			src := live[rng.Intn(len(live))]
			var dst string
			if len(live) > 1 && rng.Intn(2) == 0 {
				// Replacing rename over another live file.
				dst = live[rng.Intn(len(live))]
				if dst == src {
					dst = freshPath()
				}
			} else {
				dst = freshPath()
			}
			files[dst] = files[src]
			delete(files, src)
			ops = append(ops, Op{Kind: OpRename, Path: src, Path2: dst})
		case roll < mix.truncate:
			p := live[rng.Intn(len(live))]
			f := files[p]
			var sz int64
			if f.size > 0 {
				sz = rng.Int63n(f.size + f.size/3 + 1)
			}
			f.size = sz
			ops = append(ops, Op{Kind: OpTruncate, Path: p, Size: sz,
				Close: rng.Intn(mix.closeTrunc) == 0})
		default:
			if len(dirs) >= 3 {
				continue // keep the tree small; reroll
			}
			d := fmt.Sprintf("/d%d", nextDir)
			nextDir++
			dirs = append(dirs, d)
			ops = append(ops, Op{Kind: OpMkdir, Path: d})
		}
	}
	return ops
}
