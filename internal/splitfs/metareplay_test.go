package splitfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// metaEnv is a small instance on a device that tracks persistence, which
// can be crashed and recovered with the configuration it was made with.
type metaEnv struct {
	dev  *pmem.Device
	kcfg ext4dax.Config
	cfg  Config
	fs   *FS
}

func newMetaEnv(t testing.TB, mode Mode, kcfg ext4dax.Config, logBytes int64) *metaEnv {
	t.Helper()
	if kcfg.MaxInodes == 0 {
		kcfg.MaxInodes = 512
	}
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &metaEnv{dev: dev, kcfg: kcfg,
		cfg: Config{Mode: mode, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: logBytes}}
	if e.fs, err = New(kfs, e.cfg); err != nil {
		t.Fatal(err)
	}
	return e
}

// recover crashes the device (at the armed event, if one fired; with torn
// lines from rng otherwise), remounts and recovers.
func (e *metaEnv) recover(t testing.TB, rng *sim.RNG) *RecoveryReport {
	t.Helper()
	if err := e.dev.Crash(rng); err != nil {
		t.Fatal(err)
	}
	return e.remount(t)
}

// remount mounts the device as it is and runs U-Split recovery.
func (e *metaEnv) remount(t testing.TB) *RecoveryReport {
	t.Helper()
	kfs, _, err := ext4dax.Mount(e.dev, e.kcfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, report, err := RecoverFS(kfs, e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.fs = fs
	return report
}

// tree lists every user-visible path, directories with a trailing slash,
// files with their contents — through K-Split, because opening a file on a
// strict instance appends to the very log the tests look at.
func tree(t testing.TB, fs *FS) string {
	t.Helper()
	var out []string
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fs.kfs.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		for _, ent := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + ent.Name
			switch {
			case p == stagingDir || p == oplogDir:
			case ent.IsDir:
				out = append(out, p+"/")
				walk(p)
			default:
				data, err := vfs.ReadFile(fs.kfs, p)
				if err != nil {
					t.Fatalf("read %s: %v", p, err)
				}
				out = append(out, fmt.Sprintf("%s=%q", p, data))
			}
		}
	}
	walk("/")
	sort.Strings(out)
	return strings.Join(out, " ")
}

func mustCreateClosed(t testing.TB, fs *FS, path string, data []byte) {
	t.Helper()
	f, err := vfs.Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetadataOpsCostOneRecordNoCommit pins the price of a synchronous
// metadata operation: in sync and strict mode an unlink, a rename, a
// mkdir, an rmdir, a creating open and a truncate each issue no journal
// commit, one fence and one log record, and an fsync after all of them
// commits once; POSIX mode issues neither a record nor a fence. And that
// one commit logs the same block images in all three modes: the stamp
// rides in its commit record, not in a block of its own. (Every inode the
// sequence touches, the directory it runs in too, sits in one inode-table
// block that holds nothing else: a file created back to back with the
// op-log file shares a table block with it, eight inodes to the block, as
// the root directory does, and the image the stamp's home used to cost
// hides behind theirs.)
func TestMetadataOpsCostOneRecordNoCommit(t *testing.T) {
	images := map[Mode]int64{}
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			fs := e.fs
			for i, ino := 0, uint64(0); i < 8 || ino%8 != 7; i++ {
				p := fmt.Sprintf("/pad%d", i)
				mustCreateClosed(t, fs, p, nil)
				info, err := fs.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				ino = info.Ino
			}
			if err := fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			mustCreateClosed(t, fs, "/d/gone", nil)
			mustCreateClosed(t, fs, "/d/moved", nil)
			if err := fs.kfs.CommitMeta(); err != nil {
				t.Fatal(err)
			}
			logged := fs.kfs.JournalStats().BlocksLogged
			var f vfs.File
			ops := []struct {
				name string
				do   func() error
			}{
				{"unlink", func() error { return fs.Unlink("/d/gone") }},
				{"rename", func() error { return fs.Rename("/d/moved", "/d/here") }},
				{"mkdir", func() error { return fs.Mkdir("/d/dir", 0o755) }},
				{"mkdir2", func() error { return fs.Mkdir("/d/dir2", 0o755) }},
				{"rmdir", func() error { return fs.Rmdir("/d/dir2") }},
				{"create", func() (err error) { f, err = fs.OpenFile("/d/dir/new", vfs.O_CREATE|vfs.O_RDWR, 0o644); return err }},
				{"truncate", func() error { return f.Truncate(2 * sim.BlockSize) }},
			}
			want := int64(1)
			if mode == POSIX {
				want = 0
			}
			for _, op := range ops {
				commits, fences, recs := fs.kfs.Stats().Commits, e.dev.FenceCount(), fs.Stats().LogEntries
				if err := op.do(); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if got := fs.kfs.Stats().Commits - commits; got != 0 {
					t.Errorf("%s issued %d journal commits", op.name, got)
				}
				if got := e.dev.FenceCount() - fences; got != want {
					t.Errorf("%s issued %d fences, want %d", op.name, got, want)
				}
				if got := fs.Stats().LogEntries - recs; got != want {
					t.Errorf("%s appended %d log records, want %d", op.name, got, want)
				}
			}
			commits := fs.kfs.Stats().Commits
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := fs.kfs.Stats().Commits - commits; got != 1 {
				t.Errorf("the fsync after %d metadata operations issued %d commits, want 1", len(ops), got)
			}
			images[mode] = fs.kfs.JournalStats().BlocksLogged - logged
		})
	}
	for _, mode := range []Mode{Sync, Strict} {
		if images[mode] != images[POSIX] || images[POSIX] == 0 {
			t.Errorf("%v mode's commit logged %d block images, POSIX mode's %d: the stamp must cost none", mode, images[mode], images[POSIX])
		}
	}
}

// TestMetadataDurableWithoutCommit: in sync and strict mode every
// acknowledged metadata operation survives a crash that no journal commit
// preceded — recovery redoes it from the op log — and in strict mode so
// do the writes to a file whose create is itself only in the log: the
// write entries name the inode number the create was given, and the
// redone create gets the same one.
func TestMetadataDurableWithoutCommit(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			fs := e.fs
			mustCreateClosed(t, fs, "/a", []byte("kept"))
			mustCreateClosed(t, fs, "/b", []byte("doomed"))
			// Take inode numbers out of circulation and back, so that the
			// allocator of the remounted file system would not by itself
			// hand the creates below the numbers they get here.
			for i := 0; i < 5; i++ {
				mustCreateClosed(t, fs, fmt.Sprintf("/tmp%d", i), nil)
			}
			for i := 0; i < 5; i++ {
				if err := fs.Unlink(fmt.Sprintf("/tmp%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			mustCreateClosed(t, fs, "/flush", nil) // its close commits all of the above

			commits := fs.kfs.Stats().Commits
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			check(fs.Mkdir("/d", 0o755))
			check(fs.Mkdir("/d/e", 0o755))
			check(fs.Rename("/a", "/d/a"))
			check(fs.Unlink("/b"))
			c1, err := fs.OpenFile("/d/e/c1", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			check(err)
			c2, err := fs.OpenFile("/c2", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			check(err)
			check(fs.Mkdir("/gone", 0o755))
			check(fs.Rmdir("/gone"))
			want := `/c2="" /d/ /d/a="kept" /d/e/ /d/e/c1="" /flush=""`
			if mode == Strict {
				// Logged writes are durable too, to both new files and in an
				// order that interleaves them.
				for i := 0; i < 3; i++ {
					_, err = c1.Write([]byte("one"))
					check(err)
					_, err = c2.Write([]byte("two!"))
					check(err)
				}
				want = `/c2="two!two!two!" /d/ /d/a="kept" /d/e/ /d/e/c1="oneoneone" /flush=""`
			}
			if got := fs.kfs.Stats().Commits - commits; got != 0 {
				t.Fatalf("%d journal commits among the operations under test", got)
			}
			report := e.recover(t, sim.NewRNG(3))
			if report.MetaReplayed != 8 || report.MetaSkipped == 0 {
				t.Errorf("recovery redid %d metadata operations and skipped %d, want 8 redone and the earlier ones skipped: %+v",
					report.MetaReplayed, report.MetaSkipped, report)
			}
			if got := tree(t, e.fs); got != want {
				t.Errorf("recovered\n  %s\nwant\n  %s", got, want)
			}
			// A second recovery right away finds nothing to do.
			if report = e.recover(t, nil); report.Entries != 0 || report.MetaReplayed != 0 {
				t.Errorf("second recovery: %+v", report)
			}
			if got := tree(t, e.fs); got != want {
				t.Errorf("after a second recovery\n  %s\nwant\n  %s", got, want)
			}
		})
	}
}

// TestRenameFlushFollowsADirectoryRename: Rename finds the staged data it
// has to flush through U-Split's path-keyed caches, not a stat, so a
// directory rename must move every path cached below it. An append staged
// in /d/f is durable once /d became /e and /e/f became /g — in sync mode
// only because that second rename found the open file and relinked it —
// and the old path stops answering from the cache.
func TestRenameFlushFollowsADirectoryRename(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			fs := e.fs
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			check(fs.Mkdir("/d", 0o755))
			mustCreateClosed(t, fs, "/d/other", []byte("bystander"))
			other, err := fs.OpenFile("/d/other", vfs.O_RDWR, 0)
			check(err)
			f, err := vfs.Create(fs, "/d/f")
			check(err)
			_, err = f.Write([]byte("payload"))
			check(err)
			check(fs.Rename("/d", "/e"))
			if _, err := fs.Stat("/d/f"); !errors.Is(err, vfs.ErrNotExist) {
				t.Errorf("stat of the old path after the directory moved: %v", err)
			}
			// A new file at the old path is nobody's cached attributes.
			check(fs.Mkdir("/d", 0o755))
			mustCreateClosed(t, fs, "/d/f", []byte("newcomer"))
			check(fs.Rename("/e/f", "/g"))
			if got := f.(*File).of.path; got != "/g" {
				t.Errorf("the renamed file's description is filed under %s", got)
			}
			if got := other.(*File).of.path; got != "/e/other" {
				t.Errorf("the bystander's description is filed under %s", got)
			}
			if info, err := fs.Stat("/d/f"); err != nil || info.Size != 8 {
				t.Errorf("stat of the newcomer: %+v, %v", info, err)
			}
			if info, err := fs.Stat("/g"); err != nil || info.Size != 7 {
				t.Errorf("stat of the renamed file: %+v, %v", info, err)
			}
			e.recover(t, sim.NewRNG(5))
			got := tree(t, e.fs)
			// POSIX mode may lose the second rename itself; what its flush
			// committed — the data, and every operation before it — it may
			// not.
			want := `/d/ /d/f="newcomer" /e/ /e/other="bystander" /g="payload"`
			if mode == POSIX && got != want {
				want = `/d/ /d/f="newcomer" /e/ /e/f="payload" /e/other="bystander"`
			}
			if got != want {
				t.Errorf("recovered\n  %s\nwant\n  %s", got, want)
			}
		})
	}
}

// TestUnlinkRecreateSamePathCrash: a name that is unlinked and created
// again must come back as whichever file the crash point owes it, never
// as the result of redoing a record the journal already held — a redone
// unlink of the committed second file would destroy it. The scenario is
// crashed after every step.
func TestUnlinkRecreateSamePathCrash(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			steps := []struct {
				name string
				do   func(fs *FS, f *vfs.File) error
				want string // recovered tree after a crash that follows the step
			}{
				{"unlink", func(fs *FS, _ *vfs.File) error { return fs.Unlink("/a") }, ``},
				{"create", func(fs *FS, f *vfs.File) (err error) {
					*f, err = fs.OpenFile("/a", vfs.O_CREATE|vfs.O_RDWR, 0o644)
					return err
				}, `/a=""`},
				{"write+fsync", func(fs *FS, f *vfs.File) error {
					if _, err := (*f).Write([]byte("second")); err != nil {
						return err
					}
					return (*f).Sync()
				}, `/a="second"`},
				{"unlink again", func(fs *FS, _ *vfs.File) error { return fs.Unlink("/a") }, ``},
				{"mkdir same name", func(fs *FS, _ *vfs.File) error { return fs.Mkdir("/a", 0o755) }, `/a/`},
			}
			for n := 1; n <= len(steps); n++ {
				e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
				mustCreateClosed(t, e.fs, "/a", []byte("first"))
				var f vfs.File
				for _, s := range steps[:n] {
					if err := s.do(e.fs, &f); err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
				}
				report := e.recover(t, sim.NewRNG(uint64(n)))
				if got := tree(t, e.fs); got != steps[n-1].want {
					t.Errorf("crash after %q: recovered %s, want %s (%+v)", steps[n-1].name, got, steps[n-1].want, report)
				}
				if n == 3 && (report.MetaReplayed != 0 || report.MetaSkipped < 2) {
					t.Errorf("crash after the fsync: the unlink and the create it committed were not skipped: %+v", report)
				}
			}
		})
	}
}

// nsOp is one namespace operation of a crash sweep, applied to the file
// system and to a model of which paths exist.
type nsOp struct {
	kind       string
	path, dest string
}

func (o nsOp) apply(fs *FS) error {
	switch o.kind {
	case "mkdir":
		return fs.Mkdir(o.path, 0o755)
	case "rmdir":
		return fs.Rmdir(o.path)
	case "unlink":
		return fs.Unlink(o.path)
	case "rename":
		return fs.Rename(o.path, o.dest)
	}
	return fmt.Errorf("unknown op %q", o.kind)
}

func (o nsOp) model(ns map[string]bool) {
	switch o.kind {
	case "mkdir":
		ns[o.path+"/"] = true
	case "rmdir":
		delete(ns, o.path+"/")
	case "unlink":
		delete(ns, o.path)
	case "rename":
		delete(ns, o.path)
		ns[o.dest] = true
	}
}

func nsString(ns map[string]bool) string {
	var out []string
	for p := range ns {
		if strings.HasSuffix(p, "/") {
			out = append(out, p)
		} else {
			out = append(out, p+`=""`)
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// sweepNamespaceOps crashes ops at every persistence event from the first
// op's first to the last op's last, on instances setup builds identically
// each time, and requires the recovered namespace to be the model's just
// before or just after the operation the crash interrupted.
func sweepNamespaceOps(t *testing.T, setup func() (*metaEnv, map[string]bool), ops []nsOp) (redone int) {
	t.Helper()
	rec, ns := setup()
	states := []string{nsString(ns)}
	events := []int64{rec.dev.Events()}
	for _, op := range ops {
		if err := op.apply(rec.fs); err != nil {
			t.Fatalf("%+v: %v", op, err)
		}
		op.model(ns)
		states = append(states, nsString(ns))
		events = append(events, rec.dev.Events())
	}
	for k := events[0] + 1; k <= events[len(events)-1]; k++ {
		e, _ := setup()
		if got := e.dev.Events(); got != events[0] {
			t.Fatalf("replay diverged: setup ends at event %d, recorded %d", got, events[0])
		}
		e.dev.ArmCrash(k, sim.NewRNG(uint64(k)))
		for _, op := range ops {
			if err := op.apply(e.fs); err != nil {
				t.Fatalf("%+v: %v", op, err)
			}
		}
		if !e.dev.CrashFired() {
			t.Fatalf("event %d never fired", k)
		}
		done := sort.Search(len(events), func(i int) bool { return events[i] > k }) - 1 // ops complete at event k
		report := e.recover(t, nil)
		redone += report.MetaReplayed
		got := tree(t, e.fs)
		if got != states[done] && (events[done] == k || got != states[done+1]) {
			t.Fatalf("crash at event %d (op %d %+v): recovered\n  %s\nwant\n  %s\nor, if the crash interrupted the next operation,\n  %s\n%+v",
				k, done, ops[min(done, len(ops)-1)], got, states[done], states[min(done+1, len(states)-1)], report)
		}
	}
	return redone
}

// TestThresholdCommitCannotSplitOpFromStamp: with the size threshold at
// one note, K-Split wants to commit at the end of every metadata call —
// between the call's effects and the stamp that tells recovery they are in
// the journal, if nothing stopped it. The batch handle does: crashed at
// every event, the sweep never finds an operation redone on top of itself
// (a second mkdir fails, a second rename loses the file) or dropped.
func TestThresholdCommitCannotSplitOpFromStamp(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			setup := func() (*metaEnv, map[string]bool) {
				e := newMetaEnv(t, mode, ext4dax.Config{TxCommitThreshold: 1}, 1<<20)
				mustCreateClosed(t, e.fs, "/f0", nil)
				mustCreateClosed(t, e.fs, "/f1", nil)
				return e, map[string]bool{"/f0": true, "/f1": true}
			}
			ops := []nsOp{
				{kind: "mkdir", path: "/d"},
				{kind: "rename", path: "/f0", dest: "/d/g0"},
				{kind: "unlink", path: "/f1"},
				{kind: "rename", path: "/d/g0", dest: "/f1"},
				{kind: "mkdir", path: "/d/e"},
				{kind: "rmdir", path: "/d/e"},
				{kind: "rename", path: "/f1", dest: "/d/last"},
			}
			sweepNamespaceOps(t, setup, ops)
		})
	}
}

// fillLogWithRenames appends metadata records until the log cannot take
// one more — a file renamed back and forth, no file open — and returns the
// name the file ends up with.
func fillLogWithRenames(t testing.TB, fs *FS, a, b string) string {
	t.Helper()
	need := metaRecordBytes(len(a) + len(b))
	for fs.olog.Used()+need <= fs.olog.Capacity() {
		if err := fs.Rename(a, b); err != nil {
			t.Fatal(err)
		}
		a, b = b, a
	}
	if fs.Stats().Checkpoints != 0 {
		t.Fatal("checkpointed while filling the log")
	}
	return a
}

// TestCheckpointWithNoFileOpenCommitsFirst: a log full of metadata
// records checkpoints with no file open, so nothing syncFiles does commits
// anything; the checkpoint has to commit K-Split's running transaction
// itself before it zeroes the log, or every operation since the last
// commit — acknowledged, and now in neither place — is lost at the next
// crash. Crashed at every event of the checkpoint and of the operations
// after it.
func TestCheckpointWithNoFileOpenCommitsFirst(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			setup := func() (*metaEnv, map[string]bool) {
				// The note-count threshold is out of the way: nothing but the
				// checkpoint commits the renames that fill the log.
				e := newMetaEnv(t, mode, ext4dax.Config{TxCommitThreshold: 1 << 20}, 64<<10)
				mustCreateClosed(t, e.fs, "/x", nil)
				mustCreateClosed(t, e.fs, "/f", nil)
				x := fillLogWithRenames(t, e.fs, "/x", "/y")
				return e, map[string]bool{x: true, "/f": true}
			}
			e, ns := setup()
			x := "/x"
			if !ns[x] {
				x = "/y"
			}
			ops := []nsOp{
				{kind: "mkdir", path: "/d"}, // checkpoints first
				{kind: "rename", path: x, dest: "/d/x"},
				{kind: "unlink", path: "/f"},
			}
			if err := ops[0].apply(e.fs); err != nil {
				t.Fatal(err)
			}
			if got := e.fs.Stats().Checkpoints; got != 1 {
				t.Fatalf("%d checkpoints in the first operation, want 1", got)
			}
			sweepNamespaceOps(t, setup, ops)
		})
	}
}

// TestRecoveryCommitsBeforeZeroingTheLog: what replay redid sits in
// K-Split's running transaction until a commit takes it — RecoverFS's own
// at the end of replay or, with the size threshold at one note, one after
// every record — and the log must outlive that commit: a crash anywhere in
// recovery, recovered again, resumes after the last record whose redo
// committed (it is at or below the stamp now) and finds every operation in
// the journal or still in the log, never in neither.
func TestRecoveryCommitsBeforeZeroingTheLog(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		for _, threshold := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/threshold=%d", mode, threshold), func(t *testing.T) {
				scenario := func() *metaEnv {
					e := newMetaEnv(t, mode, ext4dax.Config{}, 64<<10)
					mustCreateClosed(t, e.fs, "/a", []byte("a"))
					for _, op := range []nsOp{{kind: "mkdir", path: "/d"}, {kind: "rename", path: "/a", dest: "/d/a"}, {kind: "mkdir", path: "/e"}} {
						if err := op.apply(e.fs); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.dev.Crash(sim.NewRNG(11)); err != nil {
						t.Fatal(err)
					}
					e.kcfg.TxCommitThreshold = threshold
					return e
				}
				const want = `/d/ /d/a="a" /e/`
				// A recording recovery numbers the events of mount and recovery.
				rec := scenario()
				lo := rec.dev.Events()
				first := rec.remount(t)
				hi := rec.dev.Events()
				if first.MetaReplayed != 3 || tree(t, rec.fs) != want {
					t.Fatalf("recording recovery: %+v, %s", first, tree(t, rec.fs))
				}
				// The later the second crash, the less the second recovery
				// has left to redo, down to nothing with the log still there
				// and then to a zeroed log.
				left, zeroed := first.MetaReplayed, false
				resumedAt := map[int]bool{}
				for k := lo + 1; k <= hi; k++ {
					e := scenario()
					e.dev.ArmCrash(k, sim.NewRNG(uint64(k)))
					e.remount(t) // runs to its end; the image froze at event k
					if !e.dev.CrashFired() {
						t.Fatalf("event %d never fired", k)
					}
					second := e.recover(t, nil)
					if got := tree(t, e.fs); got != want {
						t.Fatalf("second crash at recovery event %d: recovered %s, want %s (%+v)", k, got, want, second)
					}
					switch {
					case second.MetaReplayed > left:
						t.Fatalf("second crash at recovery event %d: %d operations to redo again, %d an event earlier (%+v)", k, second.MetaReplayed, left, second)
					case second.Entries == first.Entries:
						if second.MetaReplayed+second.MetaSkipped != first.MetaReplayed+first.MetaSkipped {
							t.Fatalf("second crash at recovery event %d: second recovery %+v, first %+v", k, second, first)
						}
						resumedAt[second.MetaReplayed] = true
					default:
						// The log is being zeroed, or has been: only once
						// there is nothing left to redo.
						if left != 0 {
							t.Fatalf("second crash at recovery event %d: %d of %d log entries left with %d operations still to redo (%+v)",
								k, second.Entries, first.Entries, left, second)
						}
						zeroed = true
					}
					left = second.MetaReplayed
				}
				wantResumes := map[int]bool{3: true, 0: true}
				if threshold == 1 {
					wantResumes = map[int]bool{3: true, 2: true, 1: true, 0: true}
				}
				if !zeroed || !maps.Equal(resumedAt, wantResumes) {
					t.Errorf("second recoveries had %v operations left to redo, want %v; log found zeroed: %v", resumedAt, wantResumes, zeroed)
				}
			})
		}
	}
}

// TestReserveLogCountsBytes: a metadata record is as long as its paths,
// so room in the log is reserved in bytes. A path of a few KB that does
// not fit what is left checkpoints first; one longer than the whole log
// is refused before K-Split hears of it, and so is a rename from a path
// too long for the record's length field.
func TestReserveLogCountsBytes(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 64<<10)
			fs := e.fs
			mustCreateClosed(t, fs, "/x", nil)
			// Leave room for a one-line record, not for a 4 KB one.
			long := "/" + strings.Repeat("n", 4000)
			for fs.olog.Used()+metaRecordBytes(len(long)) <= fs.olog.Capacity() {
				if err := fs.Rename("/x", "/y"); err != nil {
					t.Fatal(err)
				}
				if err := fs.Rename("/y", "/x"); err != nil {
					t.Fatal(err)
				}
			}
			if fs.Stats().Checkpoints != 0 || fs.olog.Used()+logEntryBytes > fs.olog.Capacity() {
				t.Fatalf("scenario: %d checkpoints, %d of %d bytes used", fs.Stats().Checkpoints, fs.olog.Used(), fs.olog.Capacity())
			}
			if err := fs.Mkdir(long, 0o755); err != nil {
				t.Fatal(err)
			}
			if got := fs.Stats().Checkpoints; got != 1 {
				t.Fatalf("%d checkpoints, want 1 before the long record", got)
			}
			if got, room := fs.olog.Used(), metaRecordBytes(len(long)); got < 4000 || got > room {
				t.Fatalf("the record took %d bytes of the fresh log, %d were reserved", got, room)
			}
			before := fs.kfs.Stats()
			err := fs.Mkdir("/"+strings.Repeat("n", 70<<10), 0o755)
			if !errors.Is(err, vfs.ErrNoSpace) || fs.kfs.Stats() != before {
				t.Fatalf("a record larger than the log: %v, K-Split %+v -> %+v", err, before, fs.kfs.Stats())
			}
			// A rename record splits its paths at a 16-bit length: an old
			// path it cannot express is refused, not logged wrapped.
			err = fs.Rename(strings.Repeat("/"+strings.Repeat("n", 4000), 17), "/z")
			if !errors.Is(err, vfs.ErrInval) || fs.kfs.Stats() != before {
				t.Fatalf("a rename from a 68 KB path: %v, K-Split %+v -> %+v", err, before, fs.kfs.Stats())
			}
			// The long name is as durable as a short one.
			e.recover(t, sim.NewRNG(1))
			if _, err := e.fs.ReadDir(long); err != nil {
				t.Fatalf("the long-named directory did not survive the crash: %v", err)
			}
		})
	}
}

// TestOpenFailsBeforeRegisteringWhenLogCannotCheckpoint: an open that can
// create reserves its record's room before it opens anything, so when the
// log is full and the checkpoint cannot commit, the open fails with no
// file made, no description registered and no reference taken. (It used
// to commit after registering, and had to undo a half-made open when that
// commit failed.)
func TestOpenFailsBeforeRegisteringWhenLogCannotCheckpoint(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			// A journal of 16 blocks commits at most 13 block images; the
			// note-count threshold is out of the way so that only an
			// explicit commit ever tries.
			e := newMetaEnv(t, mode, ext4dax.Config{JournalBlocks: 16, TxCommitThreshold: 1 << 20}, 64<<10)
			fs := e.fs
			mustCreateClosed(t, fs, "/x", nil)
			fillLogWithRenames(t, fs, "/x", "/y")
			outgrowJournal(t, fs.kfs)
			before, entries := fs.Stats(), fs.olog.Entries()
			if _, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644); err == nil {
				t.Fatal("the open succeeded although its checkpoint could not commit")
			}
			if _, err := fs.kfs.Stat("/f"); !errors.Is(err, vfs.ErrNotExist) {
				t.Errorf("the failed open created the file: %v", err)
			}
			fs.mu.RLock()
			n := len(fs.files)
			fs.mu.RUnlock()
			if n != 0 || fs.Stats() != before || fs.olog.Entries() != entries {
				t.Errorf("the failed open left traces: %d descriptions, stats %+v -> %+v, log entries %d -> %d",
					n, before, fs.Stats(), entries, fs.olog.Entries())
			}
			// The failed commit consumed the oversized transaction; the next
			// open checkpoints, creates, and its last close retires it.
			f, err := fs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 6000), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			fs.mu.RLock()
			n = len(fs.files)
			fs.mu.RUnlock()
			if n != 0 || fs.Stats().Checkpoints != before.Checkpoints+1 {
				t.Errorf("%d descriptions left after the last close, %d checkpoints", n, fs.Stats().Checkpoints-before.Checkpoints)
			}
		})
	}
}

// TestConcurrentMetadataLoggers drives metadata operations from several
// goroutines at once — creating, plain and truncating opens, renames,
// unlinks, mkdirs — while others fsync: in sync mode only the metadata
// operations serialize on wmu, so log order and K-Split order have to
// agree without the data path's help. Whatever each goroutine was told
// succeeded must be there after a crash no commit was asked for.
func TestConcurrentMetadataLoggers(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			fs := e.fs
			const workers, rounds = 6, 25
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					dir := fmt.Sprintf("/w%d", g)
					errs <- func() error {
						if err := fs.Mkdir(dir, 0o755); err != nil {
							return err
						}
						for i := 0; i < rounds; i++ {
							a, b := fmt.Sprintf("%s/a%d", dir, i), fmt.Sprintf("%s/b%d", dir, i)
							f, err := fs.OpenFile(a, vfs.O_CREATE|vfs.O_RDWR, 0o644)
							if err != nil {
								return err
							}
							if _, err := f.Write([]byte(a)); err != nil {
								return err
							}
							if i%3 == 0 {
								if err := f.Sync(); err != nil {
									return err
								}
							}
							if err := f.Close(); err != nil {
								return err
							}
							if r, err := fs.OpenFile(a, vfs.O_RDONLY, 0); err != nil {
								return err
							} else if err := r.Close(); err != nil {
								return err
							}
							if err := fs.Rename(a, b); err != nil {
								return err
							}
							if i%2 == 1 {
								if err := fs.Unlink(b); err != nil {
									return err
								}
							}
						}
						return nil
					}()
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			e.recover(t, sim.NewRNG(9))
			for g := 0; g < workers; g++ {
				for i := 0; i < rounds; i++ {
					a, b := fmt.Sprintf("/w%d/a%d", g, i), fmt.Sprintf("/w%d/b%d", g, i)
					if _, err := e.fs.kfs.Stat(a); !errors.Is(err, vfs.ErrNotExist) {
						t.Errorf("%s survived its rename: %v", a, err)
					}
					got, err := vfs.ReadFile(e.fs.kfs, b)
					switch {
					case i%2 == 1 && !errors.Is(err, vfs.ErrNotExist):
						t.Errorf("%s survived its unlink: %v", b, err)
					case i%2 == 0 && (err != nil || string(got) != a):
						t.Errorf("%s = %q, %v; want %q", b, got, err, a)
					}
				}
			}
		})
	}
}

// TestNewInstanceContinuesTheSequence: an instance started with New on a
// K-Split an earlier instance has used — a clean restart, no recovery —
// zeroes the log but inherits the journal's stamp for it. Its sequence
// numbers have to start above that stamp, or recovery would take every
// record it logs for one the journal already holds.
func TestNewInstanceContinuesTheSequence(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			for i := 0; i < 5; i++ {
				if err := e.fs.Mkdir(fmt.Sprintf("/old%d", i), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.fs.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.fs.kfs.CommitMeta(); err != nil {
				t.Fatal(err)
			}
			fs, err := New(e.fs.kfs, e.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir("/new", 0o755); err != nil {
				t.Fatal(err)
			}
			report := e.recover(t, sim.NewRNG(2))
			if _, err := e.fs.kfs.Stat("/new"); err != nil || report.MetaReplayed != 1 {
				t.Fatalf("the restarted instance's mkdir: %v, %+v", err, report)
			}
		})
	}
}

// TestTwoModesKeepTheirOwnStamps: a sync and a strict instance on one
// K-Split log to separate logs out of separate sequences, and one journal
// transaction carries operations of both — so it carries a stamp for each.
// A crash with unredone records in both logs: each recovery redoes exactly
// its own instance's uncommitted operations (under one shared stamp the
// strict instance's higher numbers would have the sync instance's records
// skipped as committed), and each recovered instance's sequence goes on
// past both stamps.
func TestTwoModesKeepTheirOwnStamps(t *testing.T) {
	e := newMetaEnv(t, Sync, ext4dax.Config{}, 1<<20)
	strictCfg := e.cfg
	strictCfg.Mode = Strict
	strict, err := New(e.fs.kfs, strictCfg)
	if err != nil {
		t.Fatal(err)
	}
	mkdirs := func(fs *FS, names ...string) {
		t.Helper()
		for _, name := range names {
			if err := fs.Mkdir(name, 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	mkdirs(e.fs, "/s0")
	mkdirs(strict, "/t0", "/t1", "/t2")
	if err := e.fs.kfs.CommitMeta(); err != nil {
		t.Fatal(err)
	}
	mkdirs(e.fs, "/s1", "/s2")
	// Not a create: the first recovery's fresh staging pool may take the
	// inode number a second log's create was given (ROADMAP, Known red).
	if err := strict.Rename("/t2", "/t3"); err != nil {
		t.Fatal(err)
	}
	if err := e.dev.Crash(sim.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	kfs, _, err := ext4dax.Mount(e.dev, e.kcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg              Config
		redone, skipped  int
		stampAfterRedoes uint64
	}{{e.cfg, 2, 1, 3}, {strictCfg, 1, 3, 4}} {
		fs, report, err := RecoverFS(kfs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.MetaReplayed != c.redone || report.MetaSkipped != c.skipped {
			t.Errorf("%v recovery redid %d and skipped %d records, want %d and %d", c.cfg.Mode, report.MetaReplayed, report.MetaSkipped, c.redone, c.skipped)
		}
		if got := kfs.Stamp(int(c.cfg.Mode)); got != c.stampAfterRedoes {
			t.Errorf("%v stamp %d after recovery, want %d", c.cfg.Mode, got, c.stampAfterRedoes)
		}
		if fs.opSeq < kfs.MaxUserWatermark() || fs.opSeq < 3 {
			t.Errorf("%v instance's sequence resumes at %d, below a stamp (%d)", c.cfg.Mode, fs.opSeq, kfs.MaxUserWatermark())
		}
		if err := fs.Check(); err != nil {
			t.Error(err)
		}
	}
	for _, name := range []string{"/s0", "/s1", "/s2", "/t0", "/t1", "/t3"} {
		if _, err := kfs.Stat(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCheckFindsARecordAboveTheStamp: every logged operation raises its
// log's stamp before it appends, so the check passes on a live instance —
// and fails on a record whose operation never reached a transaction.
func TestCheckFindsARecordAboveTheStamp(t *testing.T) {
	for _, mode := range []Mode{Sync, Strict} {
		e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
		if err := e.fs.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Check(); err != nil {
			t.Fatalf("%v, live: %v", mode, err)
		}
		e.fs.appendLog(metaRecord{kind: metaRmdir, seq: e.fs.opSeq + 1, path: "/d"}.appendTo(nil))
		if err := e.fs.Check(); err == nil {
			t.Errorf("%v: Check passed over a record above the stamp", mode)
		}
	}
}
