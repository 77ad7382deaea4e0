package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstartTranscript runs README's quickstart through the built
// shell: a write made durable by fsync survives a crash, and recovery
// reads it back.
func TestQuickstartTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the shell binary")
	}
	bin := filepath.Join(t.TempDir(), "splitfs-shell")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader("write /a hi\nfsync /a\ncrash\nrecover\ncat /a\nquit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("shell: %v\n%s", err, out)
	}
	_, after, ok := strings.Cut(string(out), "recovered:")
	if !ok {
		t.Fatalf("no recovery reported:\n%s", out)
	}
	for _, line := range strings.Split(after, "\n") {
		if strings.TrimPrefix(line, "splitfs> ") == "hi" {
			return
		}
	}
	t.Fatalf("cat /a did not print %q after recovery:\n%s", "hi", out)
}
