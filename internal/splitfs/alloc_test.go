package splitfs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/race"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestSyncNamespaceAllocations pins what each operation class of
// splitperf's meta-churn workload allocates on splitfs-sync (DESIGN.md,
// "Host allocation and peak RSS"): a create — open O_CREATE|O_TRUNC, a 1–4
// KB write, fsync, close — allocates only the handle it returns, and
// takes everything else from what earlier unlinks freed: its description,
// overlay, chunk and kernel handle, its K-Split inode record and extent
// list, its mapping's table; a stat, a rename and an unlink allocate
// nothing. The creates run as meta-churn's do, in a bounded population:
// each also unlinks the file made lag creates before it, which allocates
// nothing (the unlink pin). A create with nothing freed to take — the
// first ones, a growing directory — allocates what it leaves behind: the
// handle, the inode record and its extent list, the mapping and its table
// (create fresh). atParent is what the parent of the change that last
// moved the bound measured: the one that recycled inodes and tables
// (create), the one that recycled descriptions (rename).
func TestSyncNamespaceAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, fs := newEnv(t, Sync)
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(fs.Mkdir("/d", 0o755))
	for _, name := range []string{"/d/data", "/d/r0"} {
		f, err := vfs.Create(fs, name)
		check(err)
		check(f.Close())
	}
	const runs = 200 // testing.AllocsPerRun calls each op once more to warm up
	const lag = 16
	names, fresh := make([]string, runs+1), make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("/d/f%03d", i)
		fresh[i] = fmt.Sprintf("/d/g%03d", i)
	}
	buf := bytes.Repeat([]byte{7}, 4<<10)
	create := func(name string, size int) {
		f, err := fs.OpenFile(name, vfs.O_CREATE|vfs.O_TRUNC|vfs.O_WRONLY, 0o644)
		check(err)
		_, err = f.Write(buf[:size])
		check(err)
		check(f.Sync())
		check(f.Close())
	}
	renames := [2]string{"/d/r0", "/d/r1"}
	var next, at int
	for _, pin := range []struct {
		name           string
		setup, op      func()
		want, atParent float64
	}{
		{"create fresh", nil, func() {
			create(fresh[next], 1<<10*(1+next%4))
			next++
		}, 5, 5},
		{"create", nil, func() {
			create(names[next], 1<<10*(1+next%4))
			if next >= lag {
				check(fs.Unlink(names[next-lag]))
			}
			next++
		}, 1, 5},
		{"stat", nil, func() {
			_, err := fs.Stat("/d/data")
			check(err)
		}, 0, 0},
		{"rename", nil, func() {
			check(fs.Rename(renames[at], renames[1-at]))
			at = 1 - at
		}, 0, 1},
		{"unlink", func() {
			for i := len(names) - lag; i < len(names); i++ { // what the creates left
				check(fs.Unlink(names[i]))
			}
			for i, name := range names {
				create(name, 1<<10*(1+i%4))
			}
		}, func() {
			check(fs.Unlink(names[next]))
			next++
		}, 0, 0},
	} {
		if pin.setup != nil {
			pin.setup()
		}
		next = 0
		// A staging file created or a log checkpointed now and then lands
		// in some run.
		const slack = 0.05
		if got := testing.AllocsPerRun(runs, pin.op); got > pin.want+slack {
			t.Errorf("%s: %.2f allocations, want <= %v (%v at the parent)", pin.name, got, pin.want, pin.atParent)
		} else {
			t.Logf("%s: %.2f allocations (bound %v, parent %v)", pin.name, got, pin.want, pin.atParent)
		}
	}
}

// TestStrictFormatAllocations pins what building a tracked strict stack
// with the default tunables allocates — the device, mkfs and a U-Split
// mount, as the root package's NewStack builds it. Zeroing the 8 MB op log
// tracks its 131 072 lines in zero slots and backs none of its frames;
// with byte slots and eager frames it cost 54.7 MB, and 6.3 MB while the
// device kept a slot index per line of every written shard.
func TestStrictFormatAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound, atParent = 5 << 18, 6.3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(), TrackPersistence: true, TrackWear: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(kfs, Config{Mode: Strict}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > bound {
		t.Fatalf("a tracked strict stack allocates %.2f MB to build, want <= %.2f MB (%.1f MB with a slot index per line)", float64(got)/(1<<20), float64(bound)/(1<<20), atParent)
	}
	t.Logf("a tracked strict stack allocates %.2f MB to build (bound %.2f MB, parent %.1f MB) and backs %d KB of frames", float64(got)/(1<<20), float64(bound)/(1<<20), atParent, dev.BackedBytes()>>10)
}
