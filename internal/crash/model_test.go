package crash

import (
	"fmt"
	"slices"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
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
			why := checkGuarantee(buildModel(stack.GuaranteeOf(stack.SplitFSKind(tc.mode)), tc.sys), tc.c, tc.interrupted, tc.dur)
			switch {
			case tc.accept && why != "":
				t.Errorf("rejected a state its row allows: %s", why)
			case !tc.accept && why == "":
				t.Error("accepted a state its row forbids")
			}
		})
	}
}

// TestContentAgainstMatchesEveryByte: the segment-at-a-time content
// check returns what checking every byte outside the dirty spans returns,
// the first failing byte's message included, on random files whose
// classes, dirty spans and recovered bytes are drawn from small alphabets
// so that passes and failures both occur.
func TestContentAgainstMatchesEveryByte(t *testing.T) {
	perByte := func(p string, got []byte, rec *mfile, dirty []span) string {
		for i := range rec.synced {
			if slices.ContainsFunc(dirty, func(s span) bool { return int64(i) >= s.off && int64(i) < s.end }) {
				continue
			}
			c, g := rec.cls[i], got[i]
			if c == clsClean && g != rec.synced[i] || c == clsEither && g != rec.synced[i] && g != rec.data[i] ||
				c == clsDurable && g != rec.data[i] {
				return fmt.Sprintf("%s byte %d (class %d) is neither synced nor durable value", p, i, c)
			}
		}
		return ""
	}
	rng := sim.NewRNG(1)
	failed := 0
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		rec := &mfile{everSynced: true, synced: make([]byte, n), data: make([]byte, n+rng.Intn(4))}
		rec.cls = make([]byte, len(rec.data))
		got := make([]byte, n+rng.Intn(4))
		for i := range rec.data {
			rec.data[i], rec.cls[i] = byte(rng.Intn(2)), byte(rng.Intn(4))
			if rng.Intn(4) > 0 { // long clean runs, as a real file has
				rec.cls[i] = clsClean
			}
		}
		for i := range got {
			got[i] = byte(rng.Intn(2))
		}
		copy(rec.synced, got)
		for range rng.Intn(3) {
			rec.synced[rng.Intn(n)] ^= 1
		}
		var dirty []span
		for range rng.Intn(4) {
			off := int64(rng.Intn(n + 2))
			dirty = append(dirty, span{off, off + int64(rng.Intn(12))})
		}
		want := perByte("/f", got, rec, dirty)
		if why := contentAgainst("/f", got, rec, dirty); why != want {
			t.Fatalf("trial %d: %q, checking every byte gives %q", trial, why, want)
		}
		if want != "" {
			failed++
		}
	}
	if failed == 0 || failed == 5000 {
		t.Fatalf("%d of 5000 trials failed: the draws do not exercise both outcomes", failed)
	}
}
