package crash

import (
	"fmt"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// The campaign runners replay workloads by absolute persistence-event
// number, so the generators must be bit-stable across runs and Go
// versions for a fixed seed. These goldens pin them; if one fails after
// an intentional generator change, update the constants — knowing every
// recorded campaign result is invalidated.
func TestGeneratorSeedStability(t *testing.T) {
	cases := []struct {
		name    string
		ops     []Op
		wantN   int
		wantSum uint64
	}{
		{"RandomOps", RandomOps(7, 50), 50, 0xd9c80ff81868e760},
		{"MetadataOps", MetadataOps(7, 50), 50, 0xd774f8583ae1049b},
		{"MetaBurstOps", MetaBurstOps(7, 50), 50, 0x5eb928d364435b0f},
		{"FragmentOps", FragmentOps(7, 50), fragmentMinOps, 0x0af0febccc98a3dc},
		{"ScatterOps", ScatterOps(7, 15), 21, 0xb1c95c1f89a3b730},
		{"AsyncOps", AsyncOps(7, 50), 50, 0x1053bb7a5e4aca83},
		// 51: a final OpSyncAll barrier follows the 50 ops drawn.
		{"ServedOps", ServedOps(7, 50), 51, 0x9e8578c489bf5683},
	}
	for _, c := range cases {
		if len(c.ops) != c.wantN {
			t.Fatalf("%s: %d ops, want %d", c.name, len(c.ops), c.wantN)
		}
		if got := opsChecksum(c.ops); got != c.wantSum {
			t.Errorf("%s: checksum %#x, want %#x", c.name, got, c.wantSum)
		}
	}
	// Determinism against a second in-process invocation.
	if opsChecksum(MetadataOps(7, 50)) != opsChecksum(MetadataOps(7, 50)) {
		t.Fatal("MetadataOps not deterministic")
	}
}

// opsChecksum folds every field of every op into an FNV-1a hash.
func opsChecksum(ops []Op) uint64 {
	h := uint64(0xcbf29ce484222325)
	w := func(p []byte) {
		for _, b := range p {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
	}
	for _, op := range ops {
		w([]byte(fmt.Sprintf("%d|%s|%s|%d|%d|%v|%v|", op.Kind, op.Path, op.Path2,
			op.Off, op.Size, op.Fsync, op.Close)))
		w(op.Data)
	}
	return h
}

func TestCompileTracksHandles(t *testing.T) {
	ops := []Op{
		{Path: "/a", Off: -1, Data: []byte("x"), Fsync: true}, // open+write+fsync
		{Path: "/a", Off: -1, Data: []byte("y"), Close: true}, // write+close (no open)
		{Path: "/a", Off: -1, Data: []byte("z")},              // open+write again
		{Kind: OpUnlink, Path: "/a"},                          // orphan unlink: no close
		{Kind: OpCreate, Path: "/a", Close: true},             // open+close
		{Kind: OpRename, Path: "/b", Path2: "/c"},             // rename only
		{Kind: OpTruncate, Path: "/c", Size: 4},               // open+truncate
	}
	var kinds []sysKind
	for _, s := range compile(ops) {
		kinds = append(kinds, s.kind)
	}
	want := []sysKind{sysOpen, sysWrite, sysFsync, sysWrite, sysClose,
		sysOpen, sysWrite, sysUnlink, sysOpen, sysClose, sysRename,
		sysOpen, sysTruncate}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("compiled %v, want %v", kinds, want)
	}
}

// tailMoves counts ops that are certain to make relink move a partial
// last block whole (DESIGN.md, "Relink is a move"): an fsynced write that
// extends its file, ends mid-block, and itself covers that last block
// from its first byte. (A last block begun by an earlier, still unsynced
// append qualifies too; this is the floor.)
func tailMoves(ops []Op) int {
	sizes := map[string]int64{}
	n := 0
	for _, op := range ops {
		switch op.Kind {
		case OpWrite:
			off := op.Off
			if off < 0 {
				off = sizes[op.Path]
			}
			end := off + int64(len(op.Data))
			if op.Fsync && end > sizes[op.Path] && end%sim.BlockSize != 0 &&
				end/sim.BlockSize*sim.BlockSize >= off {
				n++
			}
			sizes[op.Path] = max(sizes[op.Path], end)
		case OpTruncate:
			sizes[op.Path] = op.Size
		case OpUnlink:
			delete(sizes, op.Path)
		case OpRename:
			sizes[op.Path2] = sizes[op.Path]
			delete(sizes, op.Path)
		}
	}
	return n
}

// TestCampaignMixesMoveTailBlocks pins what the crash sweeps rely on for
// the whole-block relink of an append's tail: every workload family, at
// the seeds and lengths cmd/crashcheck runs by default and in CI, ends a
// staged range mid-block at EOF and fsyncs it, so no dedicated op is
// needed for the sweep to cross that path in every mode.
func TestCampaignMixesMoveTailBlocks(t *testing.T) {
	for _, nops := range []int{25, 15, 10} { // default, CI bounded sweep, CI served-crash
		for seed := uint64(1); seed <= 2; seed++ {
			for name, ops := range map[string][]Op{
				"write":  RandomOps(seed*13, nops),
				"meta":   MetadataOps(seed*29, nops),
				"async":  AsyncOps(seed*17, nops),
				"served": ServedOps(seed*13, nops),
			} {
				if tailMoves(ops) == 0 {
					t.Errorf("%s mix, seed %d, %d ops: no fsynced sub-block append at EOF", name, seed, nops)
				}
			}
		}
	}
}

// TestMetaBurstOpsThinTheCommits pins what the metadata-replay sweeps rely
// on: MetaBurstOps is mostly metadata operations, and few of its ops carry
// the fsync or close that commits K-Split's running transaction — far
// fewer than MetadataOps' — so several uncommitted operations precede a
// typical crash point.
func TestMetaBurstOpsThinTheCommits(t *testing.T) {
	count := func(ops []Op) (meta, committing int) {
		for _, op := range ops {
			if op.Kind != OpWrite {
				meta++
			}
			if op.Fsync || op.Close && op.Kind != OpUnlink {
				committing++
			}
		}
		return meta, committing
	}
	for seed := uint64(1); seed <= 4; seed++ {
		meta, committing := count(MetaBurstOps(seed*37, 40))
		_, dense := count(MetadataOps(seed*37, 40))
		if meta < 28 || committing > 8 || committing*2 > dense {
			t.Errorf("seed %d: %d of 40 ops are metadata operations, %d commit (MetadataOps: %d)", seed, meta, committing, dense)
		}
	}
}

// TestMetadataOpsMoveDirectories pins what lets the sweeps see a link
// count go wrong (ext4dax.FS.Check compares every inode's with the
// namespace after each recovery): at the seeds and lengths CI's two
// metadata campaigns run, both families rename a directory under another
// parent, so its ".." link has to move with it.
func TestMetadataOpsMoveDirectories(t *testing.T) {
	dirMoves := func(ops []Op) (n int) {
		dirs := map[string]bool{}
		for _, op := range ops {
			switch {
			case op.Kind == OpMkdir:
				dirs[op.Path] = true
			case op.Kind == OpRename && dirs[op.Path]:
				from, _ := vfs.SplitDir(op.Path)
				if to, _ := vfs.SplitDir(op.Path2); to != from {
					n++
				}
				delete(dirs, op.Path)
				dirs[op.Path2] = true
			}
		}
		return n
	}
	for _, c := range []struct {
		nops  int
		seeds uint64
	}{{15, 2}, {40, 3}} { // the bounded sweep, the metadata replay campaign
		meta, burst := 0, 0
		for seed := uint64(1); seed <= c.seeds; seed++ {
			meta += dirMoves(MetadataOps(seed*29, c.nops))
			burst += dirMoves(MetaBurstOps(seed*37, c.nops))
		}
		if meta+burst == 0 || c.nops == 40 && (meta == 0 || burst == 0) {
			t.Errorf("%d ops, seeds 1..%d: %d cross-parent directory renames in meta, %d in burst", c.nops, c.seeds, meta, burst)
		}
	}
}

// TestFragmentOpsReachOverflowBlocks pins what the fragment family is
// for: at the lengths cmd/crashcheck runs it, in every mode, a file owns
// an extent-overflow block (stat's block count exceeds its data blocks)
// with a third of the workload still to run — so the sweep's crash points
// fall inside write-backs that touch some leaves of an inode and not
// others.
func TestFragmentOpsReachOverflowBlocks(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		for _, nops := range []int{15, 25} { // CI's bounded sweep, the default
			for seed := uint64(1); seed <= 8; seed++ { // nightly's seeds
				ops := FragmentOps(seed*19, nops)
				env, err := newStack(stack.SplitFSKind(mode))
				if err != nil {
					t.Fatal(err)
				}
				sys := compile(ops)
				r := &runner{fs: env.FS, handles: map[string]vfs.File{}}
				for _, sc := range sys[:sysPrefix(sys, len(ops)*2/3)] {
					if err := r.apply(sc); err != nil {
						t.Fatalf("%v, seed %d, op %d: %v", mode, seed, sc.opIdx, err)
					}
				}
				overflow := int64(0)
				for _, p := range []string{"/g0", "/g1"} {
					info, err := env.Base.(*splitfs.FS).KFS().Stat(p)
					if err != nil {
						t.Fatal(err)
					}
					overflow += info.Blocks - (info.Size+sim.BlockSize-1)/sim.BlockSize
				}
				if overflow == 0 {
					t.Errorf("%v, seed %d, %d ops asked for (%d generated): no overflow block after two thirds of them",
						mode, seed, nops, len(ops))
				}
			}
		}
	}
}

// TestScatterOpsSpanStagingFiles pins what the scatter family is for: at
// the lengths cmd/crashcheck runs it, in every mode, one fsync takes
// blocks out of two staging files at once — its relink vector names two
// source inodes, besides holding several moves — so the sweep's crash
// points fall inside such a transaction.
func TestScatterOpsSpanStagingFiles(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		for _, nops := range []int{15, 25} { // CI's bounded sweep, the default
			for seed := uint64(1); seed <= 8; seed++ { // nightly's seeds
				env, err := newStack(stack.SplitFSKind(mode))
				if err != nil {
					t.Fatal(err)
				}
				kfs := env.Base.(*splitfs.FS).KFS()
				held := func() map[string]int64 { // blocks each staging file holds
					m := map[string]int64{}
					ents, err := kfs.ReadDir("/.splitfs-staging")
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range ents {
						info, err := kfs.Stat("/.splitfs-staging/" + e.Name)
						if err != nil {
							t.Fatal(err)
						}
						m[e.Name] = info.Blocks
					}
					return m
				}
				r := &runner{fs: env.FS, handles: map[string]vfs.File{}}
				most := 0
				for _, sc := range compile(ScatterOps(seed*23, nops)) {
					before := held()
					if err := r.apply(sc); err != nil {
						t.Fatalf("%v, seed %d, op %d: %v", mode, seed, sc.opIdx, err)
					}
					if sc.kind != sysFsync {
						continue
					}
					// A file gone after the fsync was sealed in this round
					// and gave it its last staged ranges: reclaim follows
					// the commit that released them.
					lost, after := 0, held()
					for name, blocks := range before {
						if now, ok := after[name]; !ok || now < blocks {
							lost++
						}
					}
					most = max(most, lost)
				}
				if most < 2 {
					t.Errorf("%v, seed %d, %d ops: no fsync moved blocks out of two staging files (most: %d)", mode, seed, nops, most)
				}
			}
		}
	}
}
