package crash

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// Recovery idempotence: mounting twice and running RecoverFS twice over
// the same crashed image must yield byte-identical file contents, and
// the repeated recovery must have nothing left to do: where the first
// one's report shows staged writes re-applied and (in sync and strict
// mode, over this thinned-commit workload) metadata operations redone, the
// second one's shows an empty log.
func TestRecoveryIdempotence(t *testing.T) {
	for _, mode := range []splitfs.Mode{splitfs.POSIX, splitfs.Sync, splitfs.Strict} {
		ops := MetaBurstOps(17, 30)
		metaRedone, points := 0, 0
		// Probe a few events, each of the four ways.
		record, err := Run(Campaign{Kind: stack.SplitFSKind(mode), Ops: ops, CrashAfter: len(ops), Seed: 17, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		w0 := record.SysEvents[0]
		w1 := record.SysEvents[len(record.SysEvents)-1]
		rng, probed := sim.NewRNG(99), map[int64]bool{}
		for range 6 {
			probed[w0+1+rng.Int63n(w1-w0)] = true
		}
		for p := range pmem.CrashPoints(record.Trace, tears) {
			if !probed[p.Ev.Seq] {
				continue
			}
			points++
			env, err := newStack(stack.SplitFSKind(mode))
			if err != nil {
				t.Fatal(err)
			}
			cfg := env.Spec.USplit
			cfg.Mode = mode
			p.Arm(env.Dev)
			r := &runner{fs: env.FS, handles: map[string]vfs.File{}}
			for _, sc := range compile(ops) {
				if err := r.apply(sc); err != nil {
					t.Fatal(err)
				}
			}
			p.Crash(env.Dev)

			// Mount twice: the second journal replay must be a no-op.
			if _, _, err := ext4dax.Mount(env.Dev, ext4dax.Config{}); err != nil {
				t.Fatalf("%v %v: first mount: %v", mode, p, err)
			}
			kfs, replayed2, err := ext4dax.Mount(env.Dev, ext4dax.Config{})
			if err != nil {
				t.Fatalf("%v %v: second mount: %v", mode, p, err)
			}
			if replayed2 != 0 {
				t.Fatalf("%v %v: second mount replayed %d transactions", mode, p, replayed2)
			}

			_, rep1, err := splitfs.RecoverFS(kfs, cfg)
			if err != nil {
				t.Fatalf("%v %v: first recovery: %v", mode, p, err)
			}
			// Snapshot through the kernel view: reading via the recovered
			// strict instance would itself append open/close log entries.
			snap1 := dumpFiles(t, kfs)

			// Recover again over the recovered image (as if the machine
			// lost power right after recovery finished).
			kfs2, _, err := ext4dax.Mount(env.Dev, ext4dax.Config{})
			if err != nil {
				t.Fatalf("%v %v: remount: %v", mode, p, err)
			}
			_, rep2, err := splitfs.RecoverFS(kfs2, cfg)
			if err != nil {
				t.Fatalf("%v %v: second recovery: %v", mode, p, err)
			}
			snap2 := dumpFiles(t, kfs2)

			if !bytes.Equal(snap1, snap2) {
				t.Fatalf("%v %v: repeated recovery changed file contents:\n%s\nvs\n%s",
					mode, p, snap1, snap2)
			}
			rep2.ReplayNs = 0 // scanning an empty log takes time too
			if *rep2 != (splitfs.RecoveryReport{}) {
				t.Fatalf("%v %v: second recovery not idempotent: first %+v, second %+v",
					mode, p, rep1, rep2)
			}
			metaRedone += rep1.MetaReplayed
		}
		t.Logf("%v: %d crash points", mode, points)
		if (mode == splitfs.POSIX) != (metaRedone == 0) {
			t.Errorf("%v: the first recoveries redid %d metadata operations", mode, metaRedone)
		}
	}
}

// dumpFiles serializes every user-visible file (path, size, contents)
// into a deterministic byte snapshot, skipping SplitFS-internal files
// (the staging pool is recreated by each recovery).
func dumpFiles(t *testing.T, fs vfs.FileSystem) []byte {
	t.Helper()
	dur, err := captureDurable(fs)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var buf bytes.Buffer
	for _, p := range slices.Sorted(maps.Keys(dur.files)) {
		if strings.HasPrefix(p, "/.splitfs") {
			continue
		}
		fmt.Fprintf(&buf, "%s %d %x\n", p, len(dur.files[p]), dur.files[p])
	}
	return buf.Bytes()
}
