package server_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"splitfs/internal/server"
	"splitfs/internal/vfs"
)

// leasePipeClient attaches a stream session with leases on.
func leasePipeClient(t *testing.T, srv *server.Server, root string) (*server.Client, net.Conn) {
	t.Helper()
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c, err := server.DialConfig(cs, server.ClientConfig{Root: root, EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	return c, cs
}

// pattern is the reader-side oracle: the byte at every offset of the
// leased file is a pure function of the offset, and every value stays
// below 0x80 — the churn files write only 0x80+ bytes, so a leased read
// that returns a high byte has observed recycled staging storage.
func pattern(off int64) byte { return byte(off%96) + 1 }

func fillPattern(p []byte, off int64) {
	for i := range p {
		p[i] = pattern(off + int64(i))
	}
}

// TestLeasedDataPlane pins the zero-copy contract on the loopback
// transport: reads and writes of a mappable backend route through the
// leased mapping (zero data bytes on the wire codec), and the bytes are
// identical to what a direct caller sees.
func TestLeasedDataPlane(t *testing.T) {
	for _, kind := range []string{"ext4-dax", "splitfs-strict"} {
		t.Run(kind, func(t *testing.T) {
			fs := newBackend(t, kind)
			srv := server.New(fs, server.Config{})
			defer srv.Close()
			c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
			if err != nil {
				t.Fatal(err)
			}

			f, err := c.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 9000)
			fillPattern(data, 0)
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			n, err := f.ReadAt(got, 0)
			if err != nil || n != len(data) {
				t.Fatalf("leased ReadAt = %d, %v", n, err)
			}
			for i := range got {
				if got[i] != data[i] {
					t.Fatalf("leased read diverged at %d: %#x want %#x", i, got[i], data[i])
				}
			}
			// Direct view must agree byte for byte.
			direct, err := vfs.ReadFile(fs, "/a")
			if err != nil {
				t.Fatal(err)
			}
			if string(direct) != string(data) {
				t.Fatal("backend content diverged from leased writes")
			}
			// A truncate revokes the handle's leases (a re-grant leaves the
			// older segment in place), and the pushes reach a loopback
			// client ahead of the reply, as on any connection.
			if err := f.Truncate(int64(len(data))); err != nil {
				t.Fatal(err)
			}
			if got, want := c.Stats().LeaseRevocations, srv.Stats().LeaseRevokes; got == 0 || got != want {
				t.Errorf("LeaseRevocations = %d after a truncate, want the server's %d", got, want)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			st := c.Stats()
			if st.LeaseGrants == 0 {
				t.Fatal("no lease granted on a mappable backend")
			}
			if st.LeasedReadBytes != int64(len(data)) {
				t.Errorf("LeasedReadBytes = %d, want %d", st.LeasedReadBytes, len(data))
			}
			if st.LeasedWriteBytes != int64(len(data)) {
				t.Errorf("LeasedWriteBytes = %d, want %d", st.LeasedWriteBytes, len(data))
			}
			if st.WireReadBytes != 0 || st.WireWriteBytes != 0 {
				t.Errorf("data bytes leaked onto the wire: read=%d write=%d",
					st.WireReadBytes, st.WireWriteBytes)
			}
			if srv.ActiveLeases() != 0 {
				t.Errorf("ActiveLeases = %d after Close(handle)", srv.ActiveLeases())
			}
		})
	}
}

// TestLeaseUnsupportedBackend: a backend without vfs.Mappable serves a
// session with leases on correctly — every grant fails, the handle
// pins to the copy path, and the data still round-trips.
func TestLeaseUnsupportedBackend(t *testing.T) {
	fs := newBackend(t, "nova-strict")
	srv := server.New(fs, server.Config{})
	defer srv.Close()
	c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("plain"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "plain" {
		t.Fatalf("read %q", buf)
	}
	st := c.Stats()
	if st.LeaseGrants != 0 || st.LeasedReadBytes != 0 {
		t.Errorf("leases on a non-mappable backend: %+v", st)
	}
	if st.WireReadBytes == 0 || st.WireWriteBytes == 0 {
		t.Errorf("copy path unused: %+v", st)
	}
}

// TestLeaseRevocationRaces races leased reads against every revocation
// trigger — rename, truncate, conflicting writable open, unlink — plus
// background relink (fsync) recycling staging storage, over the stream
// transport. The oracle: the leased file holds only low-alphabet bytes,
// the churn traffic writes only 0x80+ bytes, so any high byte returned
// by a successful leased read is recycled staging observed through a
// stale mapping. Run with -race for the locking half of the claim.
func TestLeaseRevocationRaces(t *testing.T) {
	fs := newBackend(t, "splitfs-strict")
	srv := server.New(fs, server.Config{})
	defer srv.Close()

	reader, rconn := leasePipeClient(t, srv, "/")
	defer rconn.Close()
	churn, cconn := leasePipeClient(t, srv, "/")
	defer cconn.Close()

	const fileSize = 8192
	wf, err := churn.OpenFile("/hot", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, fileSize)
	fillPattern(seed, 0)
	if _, err := wf.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}
	if err := wf.Sync(); err != nil {
		t.Fatal(err)
	}

	rf, err := reader.OpenFile("/hot", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)

	// Leased-read loop: full-file positional reads; every byte that
	// comes back must match the offset pattern (truncation shrinks the
	// file, so short reads and read errors are fine — torn content is
	// not).
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, fileSize)
		for !stop.Load() {
			n, err := rf.ReadAt(buf, 0)
			if err != nil {
				continue // racing truncate/rename: size moved, not a breach
			}
			for i := 0; i < n; i++ {
				if buf[i] != pattern(int64(i)) {
					errc <- fmt.Errorf("leased read returned stale byte %#x at offset %d", buf[i], i)
					return
				}
			}
		}
	}()

	// Churn loop 1: staging pressure in a high alphabet plus fsync
	// (relink pops staged extents and recycles staging blocks under the
	// reader's feet — the epoch recheck must catch any overlap).
	wg.Add(1)
	go func() {
		defer wg.Done()
		junk := make([]byte, 4096)
		for i := range junk {
			junk[i] = 0x80 | byte(i)
		}
		jf, err := churn.OpenFile("/junk", vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			errc <- err
			return
		}
		defer jf.Close()
		for i := 0; !stop.Load(); i++ {
			if _, err := jf.WriteAt(junk, int64(i%4)*4096); err != nil {
				errc <- err
				return
			}
			if err := jf.Sync(); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Churn loop 2: revocation triggers on the hot file itself —
	// rename away and back, truncate to half and rewrite, conflicting
	// writable opens. Every rewrite restores the offset pattern before
	// the next trigger, and each mutation step syncs so strict-mode
	// staging recycles continuously. Sixty triggers at least, and more —
	// up to a bound — until the reader has read through a lease: no
	// revoker waits on the reader, so sixty can all land before its
	// first leased read, and a race it never joined is vacuous.
	wg.Add(1)
	go func() {
		defer wg.Done()
		half := make([]byte, fileSize/2)
		fillPattern(half, fileSize/2)
		for i := 0; (i < 60 || i < 6000 && reader.Stats().LeasedReadBytes == 0) && !stop.Load(); i++ {
			switch i % 3 {
			case 0:
				if err := churn.Rename("/hot", "/warm"); err != nil {
					errc <- err
					return
				}
				if err := churn.Rename("/warm", "/hot"); err != nil {
					errc <- err
					return
				}
			case 1:
				if err := wf.Truncate(fileSize / 2); err != nil {
					errc <- err
					return
				}
				if _, err := wf.WriteAt(half, fileSize/2); err != nil {
					errc <- err
					return
				}
				if err := wf.Sync(); err != nil {
					errc <- err
					return
				}
			case 2:
				g, err := churn.OpenFile("/hot", vfs.O_RDWR, 0)
				if err != nil {
					errc <- err
					return
				}
				if err := g.Close(); err != nil {
					errc <- err
					return
				}
			}
		}
		stop.Store(true)
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.LeaseRevokes == 0 {
		t.Error("churn revoked no leases: the race is vacuous")
	}
	if st := reader.Stats(); st.LeasedReadBytes == 0 {
		t.Error("reader never read through the lease: the race is vacuous")
	}
}

// TestIdleClientDoesNotBlockRevoker: a revocation is queued on the
// holder's session, not written into its connection. Client A holds a
// lease over net.Pipe and goes idle; a client reads only while it has a
// request out, so a push written at revoke time would block the revoker
// on A's pipe for good. Client B, driven from the same goroutine, opens
// the file for writing (which revokes A's lease) and truncates it, and
// its calls return. A's next call meets the push ahead of its reply,
// counts it and acknowledges it.
func TestIdleClientDoesNotBlockRevoker(t *testing.T) {
	fs := newBackend(t, "splitfs-strict")
	srv := server.New(fs, server.Config{})
	defer srv.Close()
	a, aconn := leasePipeClient(t, srv, "/")
	defer aconn.Close()
	b, bconn := pipeClient(t, srv, "/")
	defer bconn.Close()

	f, err := a.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	fillPattern(data, 0)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.LeaseGrants != 1 || st.LeasedWriteBytes != int64(len(data)) {
		t.Fatalf("A holds no lease: %+v", st)
	}

	g, err := b.OpenFile("/f", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.LeaseRevokes != 1 || st.RevokeAcks != 0 {
		t.Fatalf("after B's calls: %+v, want one revoke and no acknowledgement yet", st)
	}

	if fi, err := a.Stat("/f"); err != nil || fi.Size != 0 {
		t.Fatalf("A's stat after the truncate: %+v, %v", fi, err)
	}
	if n := a.Stats().LeaseRevocations; n != 1 {
		t.Errorf("A counted %d revocations, want 1", n)
	}
	if n := srv.Stats().RevokeAcks; n != 1 {
		t.Errorf("RevokeAcks = %d, want 1", n)
	}
}

// TestLeaseAcrossServerGenerations: leases die with their server
// generation — Close revokes everything, and a fresh generation over
// the same backend grants fresh leases.
func TestLeaseAcrossServerGenerations(t *testing.T) {
	fs := newBackend(t, "splitfs-strict")
	srv := server.New(fs, server.Config{})
	c, err := server.NewLoopbackConfig(srv, server.ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("gen1"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().LeaseGrants == 0 {
		t.Fatal("generation 1 granted no lease")
	}
	if srv.ActiveLeases() == 0 {
		t.Fatal("no lease outstanding before Close")
	}
	srv.Close()
	if n := srv.ActiveLeases(); n != 0 {
		t.Fatalf("%d leases survived server Close", n)
	}

	// Generation 2 over the same backend: fresh sessions re-lease.
	srv2 := server.New(fs, server.Config{})
	defer srv2.Close()
	c2, err := server.NewLoopbackConfig(srv2, server.ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := c2.OpenFile("/a", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "gen1" {
		t.Fatalf("generation 2 read %q", buf)
	}
	if c2.Stats().LeaseGrants == 0 {
		t.Fatal("generation 2 granted no lease")
	}
}

// TestLeaseResumableReadOnly: a resumable session with leases on
// keeps writes on the logged wire path — a leased write would bypass
// the replay log.
func TestLeaseResumableReadOnly(t *testing.T) {
	fs := newBackend(t, "splitfs-strict")
	srv := server.New(fs, server.Config{})
	defer srv.Close()
	redial := func() (io.ReadWriteCloser, error) {
		cs, ss := net.Pipe()
		go srv.ServeConn(ss)
		return cs, nil
	}
	c, err := server.DialResumableConfig(redial, server.ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.OpenFile("/a", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2048)
	fillPattern(data, 0)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("resumable leased read diverged")
	}
	st := c.Stats()
	if st.LeasedWriteBytes != 0 || st.WireWriteBytes == 0 {
		t.Errorf("resumable writes must stay on the wire: %+v", st)
	}
	if st.LeasedReadBytes == 0 {
		t.Errorf("resumable reads should lease: %+v", st)
	}
}
