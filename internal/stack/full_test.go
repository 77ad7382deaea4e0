package stack_test

import (
	"errors"
	"fmt"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// TestCreateAfterUnlinkOnAFullInodeTable: creates fill an inode table of
// 32 numbers (30 on ext4-dax, fewer under U-Split, whose staging files
// and op log take some), an unlink frees one inside the running
// transaction, and the next create must get it: K-Split commits the free
// first, as jbd2 commits when an allocation has to wait for frees. It
// used to fail with ENOSPC on all four kinds — in sync and strict mode
// the create runs under a metadata batch, so the commit comes when the
// batch starts. Crashed at every event of that create and the fsync after
// it, each of the four ways, the recovered image passes its structural
// check and holds the new file whole or not at all.
func TestCreateAfterUnlinkOnAFullInodeTable(t *testing.T) {
	spec := stack.Small
	spec.KSplit.MaxInodes = 32
	spec.TrackPersistence = true
	for _, kind := range []string{"ext4-dax", "splitfs-posix", "splitfs-sync", "splitfs-strict"} {
		t.Run(kind, func(t *testing.T) {
			// full builds the stack, fills its inode table and unlinks
			// the first file it made; it reports how many creates fit.
			full := func() (*stack.Stack, int) {
				st, err := stack.New(kind, spec)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for ; ; n++ {
					f, err := vfs.Create(st.FS, fmt.Sprintf("/f%d", n))
					if errors.Is(err, vfs.ErrNoSpace) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if n == 0 {
					t.Fatal("no create fit")
				}
				if err := st.FS.Unlink("/f0"); err != nil {
					t.Fatal(err)
				}
				return st, n
			}
			create := func(fs vfs.FileSystem) error {
				f, err := vfs.Create(fs, "/new")
				if err != nil {
					return err
				}
				if err := f.Sync(); err != nil {
					return err
				}
				return f.Close()
			}
			rec, n := full()
			rec.Dev.SetTracing(true)
			if err := create(rec.FS); err != nil {
				t.Fatalf("a create after %d filled the table and an unlink freed a number: %v", n, err)
			}
			points := 0
			for p := range pmem.CrashPoints(rec.Dev.Trace(), 2) {
				st, _ := full()
				p.Arm(st.Dev)
				if err := create(st.FS); err != nil {
					t.Fatal(err)
				}
				if !st.Dev.CrashFired() {
					t.Fatalf("%v never fired", p)
				}
				p.Crash(st.Dev)
				got, _, err := st.Recover()
				if err != nil {
					t.Fatalf("crash at %v: %v", p, err)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("crash at %v: %v", p, err)
				}
				info, err := got.FS.Stat("/new")
				switch {
				case errors.Is(err, vfs.ErrNotExist):
				case err != nil:
					t.Fatalf("crash at %v: %v", p, err)
				case info.IsDir || info.Size != 0 || info.Nlink != 1:
					t.Fatalf("crash at %v: /new recovered as %+v", p, info)
				}
				points++
			}
			t.Logf("%d creates filled the table; %d crash points", n, points)
		})
	}
}
