package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles splitfs-vet into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "splitfs-vet")
	cmd := exec.Command("go", "build", "-o", tool, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building splitfs-vet: %v\n%s", err, out)
	}
	return tool
}

// repoRoot locates the module root (the directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestRepoClean is the suite self-check: the tree must carry zero
// surviving diagnostics, in the same standalone mode CI runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo analysis in -short mode")
	}
	tool := buildTool(t)
	cmd := exec.Command(tool, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("splitfs-vet ./... failed:\n%s", out)
	}
}

// injected is a scratch module violating each of the four invariants.
var injected = map[string]string{
	"go.mod": "module example.com/inj\n\ngo 1.24\n",
	// lockorder: inner held while acquiring outer.
	"locks/locks.go": `// Package locks violates the declared order.
//
// +lockrank:order outer < inner
package locks

import "sync"

type DB struct {
	Mu sync.Mutex // +lockrank:outer
}

type Table struct {
	Mu sync.Mutex // +lockrank:inner
}

func Bad(db *DB, t *Table) {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	db.Mu.Lock()
	db.Mu.Unlock()
}
`,
	// determinism: wall-clock read in an unflagged package.
	"det/det.go": `package det

import "time"

func Bad() time.Time { return time.Now() }
`,
	// wireerr: opaque fmt.Errorf returned from a server package.
	"internal/server/server.go": `package server

import "fmt"

func Bad() error { return fmt.Errorf("opaque") }
`,
	// A pmem.Device lookalike: persist keys on the "internal/pmem"
	// import-path suffix and method names.
	"internal/pmem/pmem.go": `package pmem

type Device struct{}

func (d *Device) Store(off int64, p []byte)   {}
func (d *Device) StoreNT(off int64, p []byte) {}
func (d *Device) Flush(off, n int64)          {}
func (d *Device) Fence()                      {}
`,
	// persist: store escapes unfenced.
	"use/use.go": `package use

import "example.com/inj/internal/pmem"

func BadStore(d *pmem.Device, p []byte) {
	d.Store(0, p)
}
`,
}

// TestInjectedViolationsFailGate writes the injected module, plus each
// case's extra files, and runs the tool over it: planted violations
// must be reported and fail the gate, and facts must reach a narrow
// pattern from the packages it depends on. This is the regression test
// for the CI gate itself — a suite that silently reports nothing would
// pass a clean-tree check.
func TestInjectedViolationsFailGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and typechecks a scratch module in -short mode")
	}
	tool := buildTool(t)
	cases := []struct {
		name  string
		extra map[string]string
		args  []string
		want  []string // output substrings; none means the run must pass silently
	}{{
		name: "every analyzer",
		args: []string{"./..."},
		want: []string{
			"splitfs-lockorder:",
			"splitfs-determinism:",
			"splitfs-wireerr:",
			"splitfs-persist:",
		},
	}, {
		name: "lock inversion in a test file",
		extra: map[string]string{"locks/order_test.go": `package locks

func invertedInTest(db *DB, t *Table) {
	t.Mu.Lock()
	db.Mu.Lock()
	db.Mu.Unlock()
	t.Mu.Unlock()
}
`},
		args: []string{"./locks"},
		want: []string{"order_test.go:5:2: splitfs-lockorder:"},
	}, {
		name: "suppression in a test file",
		extra: map[string]string{"internal/pmem/pmem_test.go": `package pmem

import "testing"

func TestStore(t *testing.T) {
	//lint:ignore splitfs-persist the test never fences
	new(Device).Store(0, nil)
}
`},
		args: []string{"-suppressions=error", "./internal/pmem"},
		want: []string{"1 active suppression(s)", "pmem_test.go:6:2: splitfs-persist:"},
	}, {
		// Commit fences and Put is caller-fenced: only their facts,
		// from a package outside the pattern, make Save clean.
		name: "narrow pattern sees dependency facts",
		extra: map[string]string{
			"store/store.go": `package store

import "example.com/inj/internal/pmem"

// +persist:caller-fenced
func Put(d *pmem.Device, p []byte) { d.StoreNT(0, p) }

func Commit(d *pmem.Device) { d.Fence() }
`,
			"app/app.go": `package app

import (
	"example.com/inj/internal/pmem"
	"example.com/inj/store"
)

func Save(d *pmem.Device, p []byte) {
	d.StoreNT(8, p)
	store.Put(d, p)
	store.Commit(d)
}
`,
		},
		args: []string{"./app"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := t.TempDir()
			for _, files := range []map[string]string{injected, tc.extra} {
				for name, src := range files {
					path := filepath.Join(mod, name)
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			cmd := exec.Command(tool, tc.args...)
			cmd.Dir = mod
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			err := cmd.Run()
			if len(tc.want) == 0 {
				if err != nil || out.Len() > 0 {
					t.Fatalf("splitfs-vet %s: %v, want a silent pass:\n%s", strings.Join(tc.args, " "), err, out.String())
				}
				return
			}
			if err == nil {
				t.Errorf("splitfs-vet %s succeeded, want the gate to fail", strings.Join(tc.args, " "))
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output missing %q", w)
				}
			}
			if t.Failed() {
				t.Logf("splitfs-vet output:\n%s", out.String())
			}
		})
	}
}
