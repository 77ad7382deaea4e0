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

// TestInjectedViolationsFailGate writes a scratch module violating each
// of the four invariants and runs the tool in vettool mode through the
// real `go vet -vettool=` protocol: every analyzer must fire and the
// gate must fail. This is the regression test for the CI gate itself —
// a suite that silently reports nothing would pass a clean-tree check.
func TestInjectedViolationsFailGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and typechecks a scratch module in -short mode")
	}
	tool := buildTool(t)
	mod := t.TempDir()

	files := map[string]string{
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
	for name, src := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = mod
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go vet -vettool succeeded on a module violating every invariant:\n%s", out.String())
	}
	for _, want := range []string{
		"splitfs-lockorder:",
		"splitfs-determinism:",
		"splitfs-wireerr:",
		"splitfs-persist:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("vettool output missing a %s diagnostic", want)
		}
	}
	if t.Failed() {
		t.Logf("vettool output:\n%s", out.String())
	}
}
