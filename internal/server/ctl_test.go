package server_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitfs/internal/server"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// ctlTestServer builds a served splitfs-strict instance with the sim
// clock and fence counter wired as the op-cost feeds, plus one active
// session that has performed a few ops.
func ctlTestServer(t *testing.T) (*server.Server, *server.Client) {
	t.Helper()
	b, err := stack.New("splitfs-strict", smallWith(64<<20, splitfs.Config{StagingFiles: 8, StagingFileBytes: 1 << 20, OpLogBytes: 2 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b.FS, server.Config{
		OpClock:  b.Clock.Now,
		OpFences: b.Dev.FenceCount,
	})
	t.Cleanup(func() { srv.Close() })
	c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile("/ctl-probe", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello control surface")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestCtlCommandStats(t *testing.T) {
	srv, _ := ctlTestServer(t)
	out, err := srv.CtlCommand("stats")
	if err != nil {
		t.Fatal(err)
	}
	var m server.ServerMetrics
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("stats reply is not JSON: %v\n%s", err, out)
	}
	if m.Sessions != 1 {
		t.Fatalf("stats sessions = %d, want 1", m.Sessions)
	}
	if m.Ops == 0 || m.Bytes == 0 {
		t.Fatalf("stats ops=%d bytes=%d, want nonzero", m.Ops, m.Bytes)
	}
	if m.Cost == 0 {
		t.Fatal("stats cost = 0 with OpClock wired; sim-derived op cost missing")
	}
	if len(m.CostHist) == 0 {
		t.Fatal("stats cost histogram empty with OpClock wired")
	}
	if len(m.ByType) == 0 {
		t.Fatal("stats by_type empty")
	}
	if len(m.PerSess) != 1 {
		t.Fatalf("stats per_session has %d rows, want 1", len(m.PerSess))
	}
}

func TestCtlCommandSessionsAndTrace(t *testing.T) {
	srv, _ := ctlTestServer(t)
	out, err := srv.CtlCommand("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var rows []server.SessionMetrics
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatalf("sessions reply is not JSON: %v\n%s", err, out)
	}
	if len(rows) != 1 {
		t.Fatalf("sessions has %d rows, want 1", len(rows))
	}
	if rows[0].Gen != 1 {
		t.Fatalf("session generation = %d, want 1 (fresh attach)", rows[0].Gen)
	}

	out, err = srv.CtlCommand(fmt.Sprintf("trace %d", rows[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	var sm server.SessionMetrics
	if err := json.Unmarshal(out, &sm); err != nil {
		t.Fatalf("trace reply is not JSON: %v\n%s", err, out)
	}
	if len(sm.Flight) == 0 {
		t.Fatal("trace returned no flight records for an active session")
	}
	// The flight records carry sim-derived cost and fence annotations:
	// at least one op (the fsync) must have crossed a fence.
	fenced := false
	for _, r := range sm.Flight {
		if r.Fences > 0 {
			fenced = true
		}
	}
	if !fenced {
		t.Fatal("no flight record shows a fence delta; OpFences feed not flowing")
	}
}

func TestCtlCommandErrors(t *testing.T) {
	srv, _ := ctlTestServer(t)
	for _, cmd := range []string{"", "bogus", "trace", "trace zzz"} {
		if _, err := srv.CtlCommand(cmd); err == nil {
			t.Errorf("CtlCommand(%q) succeeded, want error", cmd)
		}
	}
	if _, err := srv.CtlCommand("trace 999999"); err == nil {
		t.Error("trace of unknown session succeeded, want error")
	}
}

// TestServeCtlUnixSocket exercises the full line protocol over a real
// unix socket, the way splitfs-shell -ctl speaks it.
func TestServeCtlUnixSocket(t *testing.T) {
	srv, _ := ctlTestServer(t)
	dir, err := os.MkdirTemp("", "ctl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeCtl(ln) }()

	ask := func(cmd string) string {
		t.Helper()
		c, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := fmt.Fprintf(c, "%s\n", cmd); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	var m server.ServerMetrics
	if err := json.Unmarshal([]byte(ask("stats")), &m); err != nil {
		t.Fatalf("stats over socket: %v", err)
	}
	if m.Sessions != 1 {
		t.Fatalf("stats over socket: sessions = %d, want 1", m.Sessions)
	}
	if reply := ask("bogus"); !strings.HasPrefix(reply, "error: ") {
		t.Fatalf("bogus command reply %q, want error line", reply)
	}
	// pprof heap streams a binary profile, not an error line.
	if reply := ask("pprof heap"); len(reply) == 0 || strings.HasPrefix(reply, "error: ") {
		t.Fatalf("pprof heap reply empty or error: %.80q", reply)
	}

	srv.Close()
	ln.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeCtl returned %v after Close, want nil", err)
	}
}
