package crash

import (
	"testing"

	"splitfs/internal/splitfs"
)

// TestTable3RowsRejectWhatTheyForbid holds each SplitFS row's oracle to
// its cells on hand-built crashes. The sweeps pass whenever the
// implementation is correct, weakened row or not; only here does a row
// that allows too much fail.
func TestTable3RowsRejectWhatTheyForbid(t *testing.T) {
	open := func(p string) syscall { return syscall{kind: sysOpen, path: p} }
	write := func(p string, off int64, s string) syscall {
		return syscall{kind: sysWrite, path: p, off: off, data: []byte(s)}
	}
	fsync := func(p string) syscall { return syscall{kind: sysFsync, path: p} }
	mkdir := func(p string) syscall { return syscall{kind: sysMkdir, path: p} }
	durable := func(files map[string]string, dirs ...string) *durableState {
		d := &durableState{files: map[string][]byte{}, dirs: map[string]bool{}}
		for p, s := range files {
			d.files[p] = []byte(s)
		}
		for _, p := range dirs {
			d.dirs[p] = true
		}
		return d
	}

	// An fsynced file, then an overwrite of all of it, which goes in
	// place outside strict mode.
	overwrite := []syscall{open("/f"), write("/f", -1, "AAAA"), fsync("/f"), write("/f", 0, "BBBB")}
	// An fsynced file, then an append, which is staged in every mode.
	appended := []syscall{open("/f"), write("/f", -1, "AAAA"), fsync("/f"), write("/f", -1, "CCCC")}
	// The fsync commits the journal inside syscall 4, so its floor is
	// the state after syscall 3; /e is made after it.
	meta := []syscall{mkdir("/d"), open("/f"), write("/f", -1, "x"), fsync("/f"), mkdir("/e")}

	for _, tc := range []struct {
		name        string
		mode        splitfs.Mode
		sys         []syscall
		c           int  // completed syscalls
		interrupted bool // crashed inside syscall c+1
		dur         *durableState
		accept      bool
	}{
		{"strict/torn overwrite", splitfs.Strict, overwrite, 3, true, durable(map[string]string{"/f": "BBAA"}), false},
		{"strict/post-state", splitfs.Strict, overwrite, 3, true, durable(map[string]string{"/f": "BBBB"}), true},
		{"sync/completed overwrite lost", splitfs.Sync, overwrite, 4, false, durable(map[string]string{"/f": "AAAA"}), false},
		{"sync/completed overwrite kept", splitfs.Sync, overwrite, 4, false, durable(map[string]string{"/f": "BBBB"}), true},
		{"sync/append lost before its relink", splitfs.Sync, appended, 4, false, durable(map[string]string{"/f": "AAAA"}), true},
		{"sync/completed mkdir lost", splitfs.Sync, meta, 5, false, durable(map[string]string{"/f": "x"}, "/d"), false},
		{"posix/namespace older than the commit floor", splitfs.POSIX, meta, 5, false, durable(nil, "/d"), false},
		{"posix/namespace at the commit floor", splitfs.POSIX, meta, 5, false, durable(map[string]string{"/f": "x"}, "/d"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			why := checkGuarantee(buildModel(rowOf(tc.mode), tc.sys), tc.c, tc.interrupted, tc.dur)
			switch {
			case tc.accept && why != "":
				t.Errorf("rejected a state its row allows: %s", why)
			case !tc.accept && why == "":
				t.Error("accepted a state its row forbids")
			}
		})
	}
}
