package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// TestServerSoakConcurrentSessions drives ≥8 concurrent sessions over
// one splitfs-strict instance through the stream transport: mixed
// creates, appends, overwrites, fsyncs, group syncs, readbacks,
// renames, unlinks, and readdirs, each session confined to its own
// subtree. This is the first workload where PR 1's lock decomposition
// and PR 3's group commit meet genuinely independent clients, and it
// must be race-clean (CI runs it under -race).
func TestServerSoakConcurrentSessions(t *testing.T) {
	const sessions = 9
	const opsPerSession = 120

	b, err := stack.New("splitfs-strict", smallWith(128<<20, splitfs.Config{StagingFiles: 12, StagingFileBytes: 1 << 20, OpLogBytes: 2 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b.FS, server.Config{})
	defer srv.Close()

	// Pre-create each tenant's subtree through a root session.
	root, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		if err := root.Mkdir(fmt.Sprintf("/tenant%d", i), 0755); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- soakSession(srv, i, opsPerSession)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := srv.SessionCount(); got != 1 { // the root session remains
		t.Fatalf("%d sessions left after soak, want 1", got)
	}
	if got := srv.OpenHandles(); got != 0 {
		t.Fatalf("%d handles left after soak", got)
	}
	// Cross-check from outside the service: every tenant's surviving
	// files are visible directly on the backend under its own subtree.
	for i := 0; i < sessions; i++ {
		if _, err := b.FS.ReadDir(fmt.Sprintf("/tenant%d", i)); err != nil {
			t.Errorf("tenant %d subtree unreadable: %v", i, err)
		}
	}
}

// soakSession runs one tenant's op mix, verifying its own data as it
// goes. Content checks work because sessions are confined: no other
// tenant can touch this subtree.
func soakSession(srv *server.Server, id, nops int) error {
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c, err := server.DialConfig(cs, server.ClientConfig{Root: fmt.Sprintf("/tenant%d", id)})
	if err != nil {
		return fmt.Errorf("session %d: %w", id, err)
	}
	defer c.Close()

	rng := sim.NewRNG(uint64(id)*977 + 5)
	contents := map[string][]byte{} // expected durable+volatile content
	open := map[string]vfs.File{}
	nextFile := 0
	defer func() {
		for _, f := range open {
			f.Close()
		}
	}()

	paths := func() []string {
		var out []string
		for i := 0; i < nextFile; i++ {
			p := fmt.Sprintf("/f%d", i)
			if _, ok := contents[p]; ok {
				out = append(out, p)
			}
		}
		return out
	}
	handle := func(p string) (vfs.File, error) {
		if f, ok := open[p]; ok {
			return f, nil
		}
		f, err := c.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			return nil, err
		}
		open[p] = f
		return f, nil
	}

	for op := 0; op < nops; op++ {
		live := paths()
		roll := rng.Intn(100)
		if len(live) == 0 {
			roll = 0
		}
		switch {
		case roll < 45: // append or overwrite
			var p string
			if len(live) > 0 && rng.Intn(3) != 0 {
				p = live[rng.Intn(len(live))]
			} else {
				p = fmt.Sprintf("/f%d", nextFile)
				nextFile++
				contents[p] = nil
			}
			f, err := handle(p)
			if err != nil {
				return fmt.Errorf("session %d open %s: %w", id, p, err)
			}
			data := make([]byte, rng.Intn(3000)+1)
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			cur := contents[p]
			if len(cur) > 0 && rng.Intn(4) == 0 {
				off := rng.Int63n(int64(len(cur)))
				if _, err := f.WriteAt(data, off); err != nil {
					return fmt.Errorf("session %d pwrite %s: %w", id, p, err)
				}
				end := off + int64(len(data))
				for int64(len(cur)) < end {
					cur = append(cur, 0)
				}
				copy(cur[off:end], data)
				contents[p] = cur
			} else {
				if _, err := f.WriteAt(data, int64(len(cur))); err != nil {
					return fmt.Errorf("session %d append %s: %w", id, p, err)
				}
				contents[p] = append(cur, data...)
			}
			if rng.Intn(4) == 0 {
				if err := f.Sync(); err != nil {
					return fmt.Errorf("session %d fsync %s: %w", id, p, err)
				}
			}
		case roll < 60: // readback and verify
			p := live[rng.Intn(len(live))]
			got, err := vfs.ReadFile(c, p)
			if err != nil {
				return fmt.Errorf("session %d read %s: %w", id, p, err)
			}
			if !bytes.Equal(got, contents[p]) {
				return fmt.Errorf("session %d: %s diverged: %d bytes, want %d",
					id, p, len(got), len(contents[p]))
			}
		case roll < 72: // rename to a fresh name
			src := live[rng.Intn(len(live))]
			dst := fmt.Sprintf("/f%d", nextFile)
			nextFile++
			if err := c.Rename(src, dst); err != nil {
				return fmt.Errorf("session %d rename %s %s: %w", id, src, dst, err)
			}
			contents[dst] = contents[src]
			delete(contents, src)
			if f, ok := open[src]; ok {
				open[dst] = f
				delete(open, src)
			}
		case roll < 84: // unlink (close first; keeps the model simple)
			p := live[rng.Intn(len(live))]
			if f, ok := open[p]; ok {
				if err := f.Close(); err != nil {
					return fmt.Errorf("session %d close %s: %w", id, p, err)
				}
				delete(open, p)
			}
			if err := c.Unlink(p); err != nil {
				return fmt.Errorf("session %d unlink %s: %w", id, p, err)
			}
			delete(contents, p)
		case roll < 94: // namespace check
			ents, err := c.ReadDir("/")
			if err != nil {
				return fmt.Errorf("session %d readdir: %w", id, err)
			}
			if len(ents) != len(contents) {
				return fmt.Errorf("session %d: readdir sees %d entries, want %d",
					id, len(ents), len(contents))
			}
		default: // group sync across sessions (shared group commit)
			if err := c.SyncAll(); err != nil {
				return fmt.Errorf("session %d syncall: %w", id, err)
			}
		}
	}
	// Final verify of everything this tenant owns.
	for _, p := range paths() {
		got, err := vfs.ReadFile(c, p)
		if err != nil || !bytes.Equal(got, contents[p]) {
			return fmt.Errorf("session %d final verify %s: %d bytes vs %d, err=%v",
				id, p, len(got), len(contents[p]), err)
		}
	}
	return nil
}

// TestSoakSessionErrors keeps the soak's error plumbing honest: a
// confined session must not see another tenant's files at all.
func TestSoakSessionIsolation(t *testing.T) {
	b, err := stack.New("splitfs-strict", stack.Small)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b.FS, server.Config{})
	root, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/tenantA", 0755); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/tenantB", 0755); err != nil {
		t.Fatal(err)
	}
	a, _ := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/tenantA"})
	bc, _ := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/tenantB"})
	if err := vfs.WriteFile(a, "/x", []byte("A's data")); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(bc, "/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("tenant B sees tenant A's file: %v", err)
	}
	if _, err := vfs.ReadFile(bc, "/../tenantA/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("tenant B escaped: %v", err)
	}
}
