package ext4dax

import (
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/race"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestNamespaceAllocations pins what K-Split's namespace calls allocate
// on the host (DESIGN.md, "Host allocation and peak RSS"): a path walk
// is allocation-free and directory entries are held by value, so a stat
// of an existing file and a rename cost nothing, and a create only the
// handle it returns: its inode record is one an earlier unlink freed.
// atParent is what the parent of the change that last moved the bound
// measured: the one that made the walks allocation-free (stat), the one
// that made the entries values (rename), the one that recycled inode
// records (create+unlink).
func TestNamespaceAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := Mkfs(dev, Config{MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/t0", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/t0/data", "/t0/r0"} {
		f, err := vfs.Create(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	names := [2]string{"/t0/r0", "/t0/r1"}
	var at int
	for _, pin := range []struct {
		name           string
		op             func()
		want, atParent float64
	}{
		{"stat", func() {
			_, err := fs.Stat("/t0/data")
			check(err)
		}, 0, 8},
		{"rename", func() {
			check(fs.Rename(names[at], names[1-at]))
			at = 1 - at
		}, 0, 1},
		{"create+unlink", func() {
			f, err := vfs.Create(fs, "/t0/tmp")
			check(err)
			check(f.Close())
			check(fs.Unlink("/t0/tmp"))
		}, 1, 2},
	} {
		if got := testing.AllocsPerRun(200, pin.op); got > pin.want {
			t.Errorf("%s: %.2f allocations, want <= %v (%v before)", pin.name, got, pin.want, pin.atParent)
		} else {
			t.Logf("%s: %.2f allocations (bound %v, parent %v)", pin.name, got, pin.want, pin.atParent)
		}
	}
}
