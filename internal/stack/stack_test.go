package stack_test

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/logfs"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/strata"
	"splitfs/internal/vfs"
)

// baseTypes is the concrete file-system type behind every kind.
var baseTypes = map[string]reflect.Type{
	"ext4-dax":       reflect.TypeOf(&ext4dax.FS{}),
	"splitfs-posix":  reflect.TypeOf(&splitfs.FS{}),
	"splitfs-sync":   reflect.TypeOf(&splitfs.FS{}),
	"splitfs-strict": reflect.TypeOf(&splitfs.FS{}),
	"nova-strict":    reflect.TypeOf(&logfs.FS{}),
	"nova-relaxed":   reflect.TypeOf(&logfs.FS{}),
	"pmfs":           reflect.TypeOf(&logfs.FS{}),
	"strata":         reflect.TypeOf(&strata.FS{}),
}

// writeSynced creates path with data and fsyncs it.
func writeSynced(t *testing.T, fs vfs.FileSystem, path string, data []byte) {
	t.Helper()
	f, err := vfs.Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewEveryKindEveryWrapper builds all eight kinds direct, served and
// served with leases, and checks what every caller relies on: the name
// the file system reports, Base being the unwrapped file system, the
// wrapper fields, and counters that move when the stack does work.
func TestNewEveryKindEveryWrapper(t *testing.T) {
	if len(stack.Kinds()) != len(baseTypes) {
		t.Fatalf("Kinds() = %v, test table has %d", stack.Kinds(), len(baseTypes))
	}
	for _, kind := range stack.Kinds() {
		for _, w := range []struct{ served, leases bool }{{false, false}, {true, false}, {true, true}} {
			name := stack.Name(kind, w.served, w.leases)
			t.Run(name, func(t *testing.T) {
				st, err := stack.New(name, stack.Small)
				if err != nil {
					t.Fatal(err)
				}
				if st.Kind != name {
					t.Errorf("Kind = %q, want %q", st.Kind, name)
				}
				if got := reflect.TypeOf(st.Base); got != baseTypes[kind] {
					t.Errorf("Base is %v, want %v", got, baseTypes[kind])
				}
				if st.Base.Name() != kind {
					t.Errorf("Base.Name() = %q, want %q", st.Base.Name(), kind)
				}
				wantName := kind
				if w.served {
					wantName = "served:" + kind
					if _, ok := st.FS.(*server.Client); !ok || st.Server == nil {
						t.Errorf("served stack: FS is %T, Server %v", st.FS, st.Server)
					}
				} else if st.FS != st.Base || st.Server != nil {
					t.Errorf("direct stack: FS %T != Base %T or Server %v set", st.FS, st.Base, st.Server)
				}
				if st.FS.Name() != wantName {
					t.Errorf("FS.Name() = %q, want %q", st.FS.Name(), wantName)
				}
				if st.Dev.Size() != 32<<20 {
					t.Errorf("device is %d bytes, want Small's 32 MB", st.Dev.Size())
				}

				before := st.Counters()
				writeSynced(t, st.FS, "/f", bytes.Repeat([]byte{7}, 6000))
				after := st.Counters()
				if after.Clock.Total <= before.Clock.Total || after.Dev.Fences <= before.Dev.Fences ||
					after.Dev.BytesWritten() <= before.Dev.BytesWritten() {
					t.Errorf("clock/device counters did not move: %+v -> %+v", before, after)
				}
				if after.Commits+after.LogAppends <= before.Commits+before.LogAppends {
					t.Errorf("neither journal commits nor log appends moved: %+v -> %+v", before, after)
				}
				if strings.HasPrefix(kind, "splitfs-") && after.Relinks <= before.Relinks {
					t.Errorf("relinks did not move on %s", kind)
				}
				got, err := vfs.ReadFile(st.FS, "/f")
				if err != nil || len(got) != 6000 {
					t.Errorf("readback: %d bytes, %v", len(got), err)
				}
				if err := st.Serve(false); w.served && err == nil {
					t.Error("Serve on a served stack must refuse to nest")
				}
			})
		}
	}
}

// TestSpecDefaults pins the two sizings callers name: stack.Small is the
// crash suite's small sizing, and a zero Spec is the layers' own
// defaults on a 256 MB device (what the root facade's NewStack builds).
func TestSpecDefaults(t *testing.T) {
	want := stack.Spec{
		DevBytes:        32 << 20,
		KSplit:          ext4dax.Config{MaxInodes: 512},
		USplit:          splitfs.Config{StagingFiles: 4, StagingFileBytes: 1 << 20, OpLogBytes: 256 << 10},
		Log:             logfs.Config{LogBytes: 4 << 20, SnapshotSlotBytes: 1 << 20},
		PrivateLogBytes: 2 << 20,
	}
	if stack.Small != want {
		t.Errorf("stack.Small = %+v, want %+v", stack.Small, want)
	}

	st, err := stack.New("splitfs-strict", stack.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dev.Size() != 256<<20 {
		t.Errorf("zero Spec device = %d bytes, want 256 MB", st.Dev.Size())
	}
	fs := st.Base.(*splitfs.FS)
	// §3.6 defaults: ten 4 MB staging files and an 8 MB operation log.
	ents, err := fs.KFS().ReadDir("/.splitfs-staging")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 10 {
		t.Errorf("zero Spec pre-allocated %d staging files, want 10", len(ents))
	}
	for _, e := range ents {
		if fi, err := fs.KFS().Stat("/.splitfs-staging/" + e.Name); err != nil || fi.Blocks != 4<<20/sim.BlockSize {
			t.Errorf("staging file %s: %d blocks, %v; want 4 MB", e.Name, fi.Blocks, err)
		}
	}
	if fi, err := fs.KFS().Stat("/.splitfs-oplog/log-strict"); err != nil || fi.Blocks != 8<<20/sim.BlockSize {
		t.Errorf("operation log: %d blocks, %v; want 8 MB", fi.Blocks, err)
	}
	writeSynced(t, st.FS, "/f", []byte("x"))
	if st.Dev.MaxWear() != 0 {
		t.Error("zero Spec tracks wear; the root facade asks for it explicitly")
	}
}

func TestParse(t *testing.T) {
	for _, kind := range stack.Kinds() {
		for _, w := range []struct{ served, leases bool }{{false, false}, {true, false}, {true, true}} {
			name := stack.Name(kind, w.served, w.leases)
			base, served, leases, err := stack.Parse(name)
			if err != nil || base != kind || served != w.served || leases != w.leases {
				t.Errorf("Parse(%q) = %q, %v, %v, %v", name, base, served, leases, err)
			}
		}
	}
	if stack.Name("pmfs", true, false) != "served:pmfs" || stack.Name("pmfs", true, true) != "served-lease:pmfs" {
		t.Error("wrapper names changed: they are the CLI and metric-row vocabulary")
	}
	for _, bad := range []string{"", "nope", "served:", "served:nope", "served-lease:nope",
		"served:served:ext4-dax", "served-lease:served:ext4-dax", "served:served-lease:pmfs", "EXT4-DAX"} {
		if _, _, _, err := stack.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
		if _, err := stack.New(bad, stack.Small); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestCrashRecover round-trips power failure through Recover on the
// kinds built on K-Split, direct and served, and checks the recovered
// stack is a fresh direct one over the same device.
func TestCrashRecover(t *testing.T) {
	spec := stack.Small
	spec.TrackPersistence = true
	want := bytes.Repeat([]byte("durable "), 1000)
	for _, kind := range []string{"splitfs-posix", "splitfs-sync", "splitfs-strict", "ext4-dax", "served:splitfs-strict"} {
		t.Run(kind, func(t *testing.T) {
			st, err := stack.New(kind, spec)
			if err != nil {
				t.Fatal(err)
			}
			writeSynced(t, st.FS, "/kept", want)
			// Unsynced tail: may or may not survive, must not break recovery.
			f, err := st.FS.OpenFile("/kept", vfs.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("tail"), int64(len(want))); err != nil {
				t.Fatal(err)
			}
			if err := st.Dev.Crash(nil); err != nil {
				t.Fatal(err)
			}
			rec, report, err := st.Recover()
			if err != nil {
				t.Fatal(err)
			}
			base, _, _, _ := stack.Parse(kind)
			if rec.Kind != base || rec.Dev != st.Dev || rec.Clock != st.Clock || rec.Server != nil || rec.FS != rec.Base {
				t.Errorf("recovered stack %+v is not a fresh direct %s over the same device", rec, base)
			}
			if rec.Base.Name() != base {
				t.Errorf("recovered Base.Name() = %q, want %q", rec.Base.Name(), base)
			}
			if (report.OpLog != nil) != strings.HasPrefix(base, "splitfs-") {
				t.Errorf("OpLog report = %v on %s", report.OpLog, base)
			}
			got, err := vfs.ReadFile(rec.FS, "/kept")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
				t.Errorf("fsynced content lost: %d bytes back, want a %d-byte prefix intact", len(got), len(want))
			}
		})
	}
}

// TestEveryKindRecoversASyncedTree runs the same steps on all eight
// kinds: a small tree — nested directories, a file of several blocks,
// one of a partial block, an empty one, and one written and unlinked —
// is written, SyncAll makes it durable, and the live image passes its
// structural check (a block the unlink did not free fails it); the
// device crashes with its unfenced lines torn; the stack recovers with
// its own Mount, passes its check again, and reads the synced namespace
// and contents back. In the "closed" case no handle is open at the
// SyncAll: a group sync is still a barrier for every completed
// operation (syncfs(2)), not an fsync of the caller's open handles.
func TestEveryKindRecoversASyncedTree(t *testing.T) {
	spec := stack.Small
	spec.TrackPersistence = true
	open := map[string][]byte{
		"/a":     bytes.Repeat([]byte("synced a "), 2000),
		"/d/b":   []byte("b"),
		"/d/e/c": bytes.Repeat([]byte{0xc3}, 3*sim.BlockSize+100),
		"/d/e/z": nil,
	}
	closed := map[string][]byte{"/d/f": bytes.Repeat([]byte("f"), sim.BlockSize+7)}
	cases := []struct {
		name string
		dirs map[string][]string
		tree map[string][]byte
		// write builds the tree and returns the handles SyncAll is given.
		write func(t *testing.T, fs vfs.FileSystem) []vfs.File
	}{
		{"open", map[string][]string{"/d": {"b", "e"}, "/d/e": {"c", "z"}}, open, func(t *testing.T, fs vfs.FileSystem) []vfs.File {
			for _, d := range []string{"/d", "/d/e"} {
				if err := fs.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			var files []vfs.File
			for _, p := range slices.Sorted(maps.Keys(open)) {
				f, err := vfs.Create(fs, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(open[p]); err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			if err := vfs.WriteFile(fs, "/d/gone", bytes.Repeat([]byte("g"), 2*sim.BlockSize)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Unlink("/d/gone"); err != nil {
				t.Fatal(err)
			}
			return files
		}},
		{"closed", map[string][]string{"/": {"d", "e"}, "/d": {"f"}}, closed, func(t *testing.T, fs vfs.FileSystem) []vfs.File {
			if err := fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(fs, "/d/f", closed["/d/f"]); err != nil {
				t.Fatal(err)
			}
			if err := fs.Mkdir("/e", 0o755); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
	}
	for _, kind := range stack.Kinds() {
		t.Run(kind, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					st, err := stack.New(kind, spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := vfs.SyncAll(st.FS, c.write(t, st.FS)); err != nil {
						t.Fatal(err)
					}
					if err := st.Check(); err != nil {
						t.Fatalf("live image fails its check: %v", err)
					}
					if err := st.Dev.Crash(sim.NewRNG(61)); err != nil {
						t.Fatal(err)
					}
					rec, _, err := st.Recover()
					if err != nil {
						t.Fatal(err)
					}
					if err := rec.Check(); err != nil {
						t.Fatalf("recovered image fails its check: %v", err)
					}
					for d, want := range c.dirs {
						ents, err := rec.FS.ReadDir(d)
						var got []string
						for _, e := range ents {
							got = append(got, e.Name)
						}
						if err != nil || !slices.Equal(got, want) {
							t.Errorf("ReadDir(%s) = %v, %v; want %v", d, got, err, want)
						}
					}
					for p, want := range c.tree {
						if got, err := vfs.ReadFile(rec.FS, p); err != nil || !bytes.Equal(got, want) {
							t.Errorf("%s: %d bytes back (%v), want its %d synced bytes", p, len(got), err, len(want))
						}
					}
				})
			}
		})
	}
}

// TestSingleConstructionSite is the guard behind "one way to build a
// stack": outside internal/stack, the layer packages themselves and the
// benchmark module, no non-test source may put a device or file system
// together by hand.
func TestSingleConstructionSite(t *testing.T) {
	constructors := []string{"pmem.New(", "ext4dax.Mkfs(", "splitfs.New(", "logfs.New(", "strata.New("}
	// file -> the one constructor it may call, and why.
	allowed := map[string]string{
		// Table 2 measures the bare device, with no file system on it.
		"internal/harness/micro.go": "pmem.New(",
		// A second U-Split instance attaching to an existing stack's
		// K-Split (the paper's multi-application deployment), not a stack.
		"examples/multimode/main.go": "splitfs.New(",
	}
	exempt := []string{"internal/stack/", "internal/pmem/", "internal/ext4dax/", "internal/splitfs/",
		"internal/logfs/", "internal/strata/", "cmd/splitperf/", ".bench_build/", ".git/"}

	root := filepath.Join("..", "..")
	var found []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			for _, e := range exempt {
				if rel+"/" == e {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				continue
			}
			for _, c := range constructors {
				if strings.Contains(line, c) && allowed[rel] != c {
					found = append(found, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("hand-built stack outside internal/stack: %s", f)
	}
}
