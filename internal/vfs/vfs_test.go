package vfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"":            "/",
		"/":           "/",
		"a":           "/a",
		"/a/b":        "/a/b",
		"/a//b/":      "/a/b",
		"/a/./b":      "/a/b",
		"/a/../b":     "/b",
		"/../a":       "/a",
		"a/b/../c/./": "/a/c",
		// Leading ".." runs clamp at the root — the lexical-confinement
		// property the server's session layer builds its subtree
		// resolution on.
		"..":          "/",
		"../..":       "/",
		"../../a":     "/a",
		"/../../a/..": "/",
		"..a":         "/..a", // not a dotdot component
		// "."-only and trailing-slash shapes.
		".":     "/",
		"./.":   "/",
		"./a/.": "/a",
		"a/":    "/a",
		"//":    "/",
		"a//":   "/a",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"/", nil},
		{".", nil},
		{"..", nil},
		{"../../..", nil},
		{"/a/b", []string{"a", "b"}},
		{"a//b///c", []string{"a", "b", "c"}},
		{"/a/../b/./c/..", []string{"b"}},
		{"../a", []string{"a"}},
		{"a/..", nil},
	}
	for _, c := range cases {
		got := SplitPath(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSplitDir(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"/a/b/c", "/a/b", "c"},
		{"/a", "/", "a"},
		{"/", "/", ""},
		{"a/b", "/a", "b"},
		// Edge shapes the session layer leans on.
		{"", "/", ""},
		{"..", "/", ""},
		{"/a/b/", "/a", "b"},
		{"/a/../b", "/", "b"},
		{"a/./b/..", "/", "a"},
	}
	for _, c := range cases {
		d, b := SplitDir(c.in)
		if d != c.dir || b != c.base {
			t.Errorf("SplitDir(%q) = (%q,%q), want (%q,%q)", c.in, d, b, c.dir, c.base)
		}
	}
}

func TestCleanPathIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		c := CleanPath(s)
		return CleanPath(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlagHelpers(t *testing.T) {
	if !Readable(O_RDONLY) || !Readable(O_RDWR) || Readable(O_WRONLY) {
		t.Fatal("Readable wrong")
	}
	if !Writable(O_WRONLY) || !Writable(O_RDWR) || Writable(O_RDONLY) {
		t.Fatal("Writable wrong")
	}
	if Readable(O_WRONLY | O_CREATE | O_TRUNC) {
		t.Fatal("flags beyond access mode must not affect Readable")
	}
}

func TestPathError(t *testing.T) {
	err := WrapPath("open", "/x", ErrNotExist)
	if !errors.Is(err, ErrNotExist) {
		t.Fatal("PathError does not unwrap")
	}
	if err.Error() != "open /x: file does not exist" {
		t.Fatalf("Error() = %q", err.Error())
	}
	if WrapPath("open", "/x", nil) != nil {
		t.Fatal("WrapPath(nil) != nil")
	}
}

// fakeFile counts Close calls for FD table tests.
type fakeFile struct {
	File
	closed int
	off    int64
}

func (f *fakeFile) Close() error                       { f.closed++; return nil }
func (f *fakeFile) Seek(o int64, w int) (int64, error) { f.off = o; return o, nil }
func (f *fakeFile) Path() string                       { return fmt.Sprintf("/fake%p", f) }

func TestFDTableInsertGetClose(t *testing.T) {
	tab := NewFDTable()
	f := &fakeFile{}
	fd := tab.Insert(f)
	got, err := tab.Get(fd)
	if err != nil || got != File(f) {
		t.Fatalf("Get(%d) = %v, %v", fd, got, err)
	}
	if err := tab.Close(fd); err != nil {
		t.Fatal(err)
	}
	if f.closed != 1 {
		t.Fatalf("file closed %d times, want 1", f.closed)
	}
	if _, err := tab.Get(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Get after close = %v, want ErrBadFD", err)
	}
}

func TestFDTableDupSharesFileAndDefersClose(t *testing.T) {
	tab := NewFDTable()
	f := &fakeFile{}
	fd := tab.Insert(f)
	dup, err := tab.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := tab.Get(fd)
	g2, _ := tab.Get(dup)
	if g1 != g2 {
		t.Fatal("dup'd descriptors do not share the open file description")
	}
	if err := tab.Close(fd); err != nil {
		t.Fatal(err)
	}
	if f.closed != 0 {
		t.Fatal("file closed while a dup'd descriptor remains")
	}
	if err := tab.Close(dup); err != nil {
		t.Fatal(err)
	}
	if f.closed != 1 {
		t.Fatalf("file closed %d times, want 1", f.closed)
	}
}

func TestFDTableErrors(t *testing.T) {
	tab := NewFDTable()
	if _, err := tab.Dup(42); !errors.Is(err, ErrBadFD) {
		t.Fatal("Dup of bad fd must fail")
	}
	if err := tab.Close(42); !errors.Is(err, ErrBadFD) {
		t.Fatal("Close of bad fd must fail")
	}
}

func TestFDTableCloseAllTeardown(t *testing.T) {
	tab := NewFDTable()
	a := &fakeFile{}
	b := &fakeFile{}
	fdA := tab.Insert(a)
	if _, err := tab.Dup(fdA); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Dup(fdA); err != nil {
		t.Fatal(err)
	}
	tab.Insert(b)
	if err := tab.CloseAll(); err != nil {
		t.Fatal(err)
	}
	// Each distinct file closes exactly once, however many dup'd
	// descriptors pointed at it.
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("closed counts a=%d b=%d, want 1/1", a.closed, b.closed)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after CloseAll", tab.Len())
	}
	// Idempotent: a second teardown is a no-op.
	if err := tab.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("second CloseAll re-closed files: a=%d b=%d", a.closed, b.closed)
	}
	// The table stays usable after teardown.
	fd := tab.Insert(&fakeFile{})
	if _, err := tab.Get(fd); err != nil {
		t.Fatal(err)
	}
}

func TestFDTableCloseAllPartiallyDupped(t *testing.T) {
	// A file whose dup'd descriptor was individually closed first must
	// still close exactly once at teardown.
	tab := NewFDTable()
	f := &fakeFile{}
	fd := tab.Insert(f)
	dup, err := tab.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(dup); err != nil {
		t.Fatal(err)
	}
	if f.closed != 0 {
		t.Fatal("file closed while a descriptor remains")
	}
	if err := tab.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if f.closed != 1 {
		t.Fatalf("closed %d times, want 1", f.closed)
	}
}

func TestFDTableFilesDedups(t *testing.T) {
	tab := NewFDTable()
	f := &fakeFile{}
	fd := tab.Insert(f)
	if _, err := tab.Dup(fd); err != nil {
		t.Fatal(err)
	}
	tab.Insert(&fakeFile{})
	if got := len(tab.Files()); got != 2 {
		t.Fatalf("Files() = %d distinct, want 2", got)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tab.Len())
	}
}

// syncFile records the order Sync reaches it in.
type syncFile struct {
	File
	path string
	log  *[]string
	err  error
}

func (f *syncFile) Path() string { return f.path }
func (f *syncFile) Sync() error  { *f.log = append(*f.log, f.path); return f.err }

// groupFS is a backend with a SyncAll of its own.
type groupFS struct {
	FileSystem
	calls int
}

func (g *groupFS) SyncAll() error { g.calls++; return nil }

// TestSyncAll pins the group-sync rule the served session, the crash
// runner and the bench stream share: the backend's own SyncAll when it
// has one, else every handle's Sync in path order, stopping at the first
// error.
func TestSyncAll(t *testing.T) {
	var log []string
	mk := func(p string) File { return &syncFile{path: p, log: &log} }
	g := &groupFS{}
	if err := SyncAll(g, []File{mk("/b"), mk("/a")}); err != nil || g.calls != 1 || len(log) != 0 {
		t.Fatalf("backend SyncAll: err %v, %d calls, per-handle syncs %v", err, g.calls, log)
	}
	var plain struct{ FileSystem }
	if err := SyncAll(plain, []File{mk("/c"), mk("/a"), mk("/b")}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(log); got != "[/a /b /c]" {
		t.Fatalf("per-handle syncs ran in order %s, want path order", got)
	}
	log = nil
	boom := errors.New("boom")
	bad := &syncFile{path: "/b", log: &log, err: boom}
	if err := SyncAll(plain, []File{mk("/c"), bad, mk("/a")}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing handle's", err)
	}
	if got := fmt.Sprint(log); got != "[/a /b]" {
		t.Fatalf("syncs after a failure: %s, want to stop at /b", got)
	}
}
