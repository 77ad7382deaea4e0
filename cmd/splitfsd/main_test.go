package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"splitfs/internal/server"
	"splitfs/internal/vfs"
)

// TestDaemonCtlLive is the CI obs job's live-daemon check: build and
// start a real splitfsd with both sockets bound, drive nine concurrent
// tenant sessions over the data socket (the soak shape), and assert the
// control surface answers stats, sessions, and trace while the data
// plane is busy.
func TestDaemonCtlLive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir, bin := buildDaemon(t)

	const sessions = 9
	var mkdirs []string
	for i := 0; i < sessions; i++ {
		mkdirs = append(mkdirs, fmt.Sprintf("/tenant%d", i))
	}
	sock := filepath.Join(dir, "data.sock")
	ctl := filepath.Join(dir, "ctl.sock")
	cmd := exec.Command(bin,
		"-socket", sock,
		"-ctl-socket", ctl,
		"-backend", "splitfs-strict",
		"-mkdirs", strings.Join(mkdirs, ","))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	waitForSocket(t, sock)
	waitForSocket(t, ctl)

	ask := func(line string) string {
		t.Helper()
		c, err := net.Dial("unix", ctl)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := fmt.Fprintf(c, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 8192)
		for {
			n, err := c.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	// Soak: nine tenants, each writing and fsyncing in its own subtree.
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- tenantRun(sock, i)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var m server.ServerMetrics
	if err := json.Unmarshal([]byte(ask("stats")), &m); err != nil {
		t.Fatalf("stats reply is not JSON: %v", err)
	}
	if m.Ops == 0 || m.Bytes == 0 {
		t.Fatalf("daemon stats ops=%d bytes=%d after soak, want nonzero", m.Ops, m.Bytes)
	}
	// The daemon wires the wall clock as its op-cost feed.
	if m.Cost == 0 {
		t.Fatal("daemon stats cost = 0; wall-clock OpClock not wired")
	}

	var rows []server.SessionMetrics
	if err := json.Unmarshal([]byte(ask("sessions")), &rows); err != nil {
		t.Fatalf("sessions reply is not JSON: %v", err)
	}
	// All tenant sessions detached; the retired flight ring still serves
	// their traces. Find one via stats' totals: ask trace for ids 1..n
	// until one answers.
	traced := false
	for id := uint64(1); id <= sessions+2 && !traced; id++ {
		reply := ask(fmt.Sprintf("trace %d", id))
		if strings.HasPrefix(reply, "error: ") {
			continue
		}
		var sm server.SessionMetrics
		if err := json.Unmarshal([]byte(reply), &sm); err != nil {
			t.Fatalf("trace %d reply is not JSON: %v", id, err)
		}
		if len(sm.Flight) > 0 {
			traced = true
		}
	}
	if !traced {
		t.Fatal("no retired session's flight trace was retrievable over ctl")
	}
}

// buildDaemon builds the daemon binary into a fresh temp directory.
// MkdirTemp on the default temp root keeps the unix socket paths under
// the 108-byte sun_path limit.
func buildDaemon(t *testing.T) (dir, bin string) {
	t.Helper()
	dir, err := os.MkdirTemp("", "splitfsd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	bin = filepath.Join(dir, "splitfsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir, bin
}

// TestDaemonRefusesWrapperKinds: the daemon is the server, so a served:
// or served-lease: kind (a loopback client of a second, inner server)
// is refused like an unknown one — exit status 2, before any socket is
// bound. served-lease: used to slip through.
func TestDaemonRefusesWrapperKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir, bin := buildDaemon(t)
	for _, kind := range []string{"served:ext4-dax", "served-lease:splitfs-strict", "served:served:pmfs", "nope", ""} {
		sock := filepath.Join(dir, "refused.sock")
		// A daemon that accepts the kind serves forever; bound the wait
		// so that regression fails instead of hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-socket", sock, "-backend", kind).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-backend %q: err = %v, want exit status 2\n%s", kind, err, out)
		}
		if !strings.Contains(string(out), "unknown backend") {
			t.Errorf("-backend %q: output %q lacks the refusal", kind, out)
		}
		if _, err := os.Stat(sock); err == nil {
			t.Errorf("-backend %q: daemon bound its socket before refusing", kind)
		}
	}
}

// waitForSocket polls until the daemon has bound path.
func waitForSocket(t *testing.T, path string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if c, err := net.Dial("unix", path); err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("socket %s never came up", path)
}

// tenantRun is one tenant session against a live daemon: create, write,
// fsync, read back, unlink half the files.
func tenantRun(sock string, tenant int) error {
	c, err := server.DialNetConfig("unix", sock,
		server.ClientConfig{Root: fmt.Sprintf("/tenant%d", tenant)})
	if err != nil {
		return fmt.Errorf("tenant %d: dial: %w", tenant, err)
	}
	defer c.Close()
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/f%d", i)
		f, err := c.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			return fmt.Errorf("tenant %d: open %s: %w", tenant, p, err)
		}
		payload := []byte(strings.Repeat(fmt.Sprintf("t%d-%d ", tenant, i), 32))
		if _, err := f.Write(payload); err != nil {
			return fmt.Errorf("tenant %d: write %s: %w", tenant, p, err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("tenant %d: sync %s: %w", tenant, p, err)
		}
		got, err := vfs.ReadFile(c, p)
		if err != nil {
			return fmt.Errorf("tenant %d: read %s: %w", tenant, p, err)
		}
		if string(got) != string(payload) {
			return fmt.Errorf("tenant %d: %s readback mismatch", tenant, p)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("tenant %d: close %s: %w", tenant, p, err)
		}
		if i%2 == 1 {
			if err := c.Unlink(p); err != nil {
				return fmt.Errorf("tenant %d: unlink %s: %w", tenant, p, err)
			}
		}
	}
	return nil
}
