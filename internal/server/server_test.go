package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"splitfs/internal/server"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// smallWith is stack.Small on a devBytes device with the given U-Split
// sizing.
func smallWith(devBytes int64, usplit splitfs.Config) stack.Spec {
	spec := stack.Small
	spec.DevBytes, spec.USplit = devBytes, usplit
	return spec
}

// newBackend builds a direct backend for the server to wrap.
func newBackend(t *testing.T, kind string) vfs.FileSystem {
	t.Helper()
	b, err := stack.New(kind, stack.Small)
	if err != nil {
		t.Fatal(err)
	}
	return b.FS
}

// pipeClient starts a served session over net.Pipe and returns the
// client plus the raw client-side conn (for abrupt-disconnect tests).
func pipeClient(t *testing.T, srv *server.Server, root string) (*server.Client, net.Conn) {
	t.Helper()
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c, err := server.DialConfig(cs, server.ClientConfig{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	return c, cs
}

func TestServedBasicOps(t *testing.T) {
	for _, transport := range []string{"loopback", "pipe"} {
		t.Run(transport, func(t *testing.T) {
			fs := newBackend(t, "splitfs-strict")
			srv := server.New(fs, server.Config{})
			var c *server.Client
			var err error
			if transport == "loopback" {
				c, err = server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
			} else {
				var conn net.Conn
				c, conn = pipeClient(t, srv, "/")
				defer conn.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			if c.Name() != "served:splitfs-strict" {
				t.Fatalf("Name = %q", c.Name())
			}
			if err := c.Mkdir("/d", 0755); err != nil {
				t.Fatal(err)
			}
			f, err := c.OpenFile("/d/a.txt", vfs.O_RDWR|vfs.O_CREATE, 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			// Positional read through the proxy.
			buf := make([]byte, 5)
			if n, err := f.ReadAt(buf, 6); err != nil || string(buf[:n]) != "world" {
				t.Fatalf("ReadAt = %q, %v", buf[:n], err)
			}
			// Handle offset lives server-side: Seek then Read.
			if pos, err := f.Seek(0, vfs.SeekSet); err != nil || pos != 0 {
				t.Fatalf("Seek = %d, %v", pos, err)
			}
			all := make([]byte, 11)
			if n, err := f.Read(all); err != nil || string(all[:n]) != "hello world" {
				t.Fatalf("Read = %q, %v", all[:n], err)
			}
			fi, err := f.Stat()
			if err != nil || fi.Size != 11 {
				t.Fatalf("Fstat = %+v, %v", fi, err)
			}
			if err := f.Truncate(5); err != nil {
				t.Fatal(err)
			}
			if fi, _ = f.Stat(); fi.Size != 5 {
				t.Fatalf("size after truncate = %d", fi.Size)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// Path-level ops: stat, readdir, rename, unlink, rmdir.
			if fi, err := c.Stat("/d"); err != nil || !fi.IsDir {
				t.Fatalf("Stat(/d) = %+v, %v", fi, err)
			}
			ents, err := c.ReadDir("/d")
			if err != nil || len(ents) != 1 || ents[0].Name != "a.txt" {
				t.Fatalf("ReadDir = %+v, %v", ents, err)
			}
			if err := c.Rename("/d/a.txt", "/d/b.txt"); err != nil {
				t.Fatal(err)
			}
			got, err := vfs.ReadFile(c, "/d/b.txt")
			if err != nil || string(got) != "hello" {
				t.Fatalf("ReadFile = %q, %v", got, err)
			}
			if err := c.Unlink("/d/b.txt"); err != nil {
				t.Fatal(err)
			}
			if err := c.Rmdir("/d"); err != nil {
				t.Fatal(err)
			}
			// Error fidelity across the wire.
			if _, err := c.Stat("/d"); !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("Stat(removed) = %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if srv.SessionCount() != 0 {
				t.Fatalf("%d sessions after client close", srv.SessionCount())
			}
		})
	}
}

func TestServedEmptyAndLargeFiles(t *testing.T) {
	fs := newBackend(t, "ext4-dax")
	srv := server.New(fs, server.Config{})
	c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	// Empty file: ReadFile must return 0 bytes, no error (clean EOF).
	if err := vfs.WriteFile(c, "/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(c, "/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty ReadFile = %d bytes, %v", len(got), err)
	}
	// A file larger than one wire chunk must round-trip via chunked
	// pread/pwrite loops.
	big := make([]byte, 700<<10) // > 2 chunks of 256 KiB
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := vfs.WriteFile(c, "/big", big); err != nil {
		t.Fatal(err)
	}
	got, err = vfs.ReadFile(c, "/big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big ReadFile: %d bytes, equal=%v, err=%v", len(got), bytes.Equal(got, big), err)
	}
	// Reading past EOF is io.EOF itself, the == comparable sentinel.
	f, err := vfs.Open(c, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 10), int64(len(big))); err != io.EOF {
		t.Fatalf("read past EOF = %v, want io.EOF", err)
	}
	f.Close()
}

func TestSessionRootConfinement(t *testing.T) {
	fs := newBackend(t, "ext4-dax")
	srv := server.New(fs, server.Config{})
	root, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/t1", 0755); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/t2", 0755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(root, "/t2/secret", []byte("other tenant")); err != nil {
		t.Fatal(err)
	}

	c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/t1"})
	if err != nil {
		t.Fatal(err)
	}
	// ".." walks clamp at the session root instead of escaping it.
	for _, p := range []string{"/../t2/secret", "../t2/secret", "/a/../../t2/secret", "/../../../../t2/secret"} {
		if _, err := vfs.ReadFile(c, p); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("escape via %q = %v, want ErrNotExist", p, err)
		}
	}
	// The clamped path lands inside the subtree.
	if err := vfs.WriteFile(c, "/../escaped", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/t1/escaped"); err != nil {
		t.Fatalf("clamped write did not land in subtree: %v", err)
	}
	if _, err := root.Stat("/escaped"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("write escaped the session root: %v", err)
	}
	// Session-relative listing is subtree-relative.
	ents, err := c.ReadDir("/")
	if err != nil || len(ents) != 1 || ents[0].Name != "escaped" {
		t.Fatalf("ReadDir(/) in subtree = %+v, %v", ents, err)
	}
	// Attaching to a missing or non-directory root fails.
	if _, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/nope"}); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("attach to missing root = %v", err)
	}
	if _, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/t2/secret"}); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("attach to file = %v", err)
	}
}

func TestDisconnectMidOperationTeardown(t *testing.T) {
	fs := newBackend(t, "splitfs-strict")
	srv := server.New(fs, server.Config{})
	defer srv.Close()
	c, rawConn := pipeClient(t, srv, "/")

	// Open a pile of handles, some dup'd onto the same file, then rip
	// the connection out mid-stream without closing anything.
	for i := 0; i < 10; i++ {
		if _, err := c.OpenFile(fmt.Sprintf("/f%d", i), vfs.O_RDWR|vfs.O_CREATE, 0644); err != nil {
			t.Fatal(err)
		}
	}
	if srv.OpenHandles() != 10 {
		t.Fatalf("open handles = %d, want 10", srv.OpenHandles())
	}
	// Issue a write and kill the conn immediately: teardown must not
	// race the in-flight operation (it waits on the executor lock).
	f, err := c.OpenFile("/busy", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	go f.Write(make([]byte, 64<<10)) // may or may not complete
	rawConn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != 0 || srv.OpenHandles() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("teardown incomplete: %d sessions, %d handles",
				srv.SessionCount(), srv.OpenHandles())
		}
		time.Sleep(time.Millisecond)
	}
	// The backend is still fully usable after the abrupt teardown.
	c2, conn2 := pipeClient(t, srv, "/")
	defer conn2.Close()
	if err := vfs.WriteFile(c2, "/after", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedRequests(t *testing.T) {
	fs := newBackend(t, "ext4-dax")
	srv := server.New(fs, server.Config{})
	defer srv.Close()
	c, conn := pipeClient(t, srv, "/")
	defer conn.Close()

	// Many goroutines pipeline requests onto one session; request IDs
	// demultiplex the replies, per-session FIFO keeps the server sane.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := fmt.Sprintf("/p%02d", g)
			if err := vfs.WriteFile(c, path, []byte(path)); err != nil {
				errs <- fmt.Errorf("%s: %w", path, err)
				return
			}
			got, err := vfs.ReadFile(c, path)
			if err != nil || string(got) != path {
				errs <- fmt.Errorf("%s readback = %q, %v", path, got, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUnixSocketTransport(t *testing.T) {
	fs := newBackend(t, "splitfs-posix")
	srv := server.New(fs, server.Config{})
	sock := t.TempDir() + "/splitfsd.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		ln.Close()
	}()

	c, err := server.DialNetConfig("unix", sock, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(c, "/sock", []byte("over the socket")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(c, "/sock")
	if err != nil || string(got) != "over the socket" {
		t.Fatalf("socket readback = %q, %v", got, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAllThroughService exercises the group-sync RPC on a backend
// with its own SyncAll (splitfs: one group-committed batch) and on one
// without (per-handle degradation).
func TestSyncAllThroughService(t *testing.T) {
	for _, kind := range []string{"splitfs-strict", "nova-strict"} {
		t.Run(kind, func(t *testing.T) {
			fs := newBackend(t, kind)
			srv := server.New(fs, server.Config{})
			c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
			if err != nil {
				t.Fatal(err)
			}
			var files []vfs.File
			for i := 0; i < 4; i++ {
				f, err := c.OpenFile(fmt.Sprintf("/s%d", i), vfs.O_RDWR|vfs.O_CREATE, 0644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("staged data")); err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			if err := c.SyncAll(); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
