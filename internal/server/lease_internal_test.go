package server

import (
	"errors"
	"net"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

func leaseTestBackend(t *testing.T) vfs.FileSystem {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := ext4dax.Mkfs(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestWireDowngradeOldClient replays the legacy handshake byte-for-byte:
// a pre-lease client sends Tattach carrying only the root string — no
// resumable byte, no feature bitmap. The server must settle on the empty
// feature set and reject a (protocol-violating) Tlease with Rerror
// instead of handing out a mapping the client never negotiated for.
func TestWireDowngradeOldClient(t *testing.T) {
	srv := New(leaseTestBackend(t), Config{})
	defer srv.Close()
	cs, ss := net.Pipe()
	defer cs.Close()
	go srv.ServeConn(ss)

	// Legacy Tattach: root string only.
	var e enc
	e.str("/")
	if err := writeFrame(cs, nil, tAttach, 1, e.b); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := readFrame(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != rAttach {
		t.Fatalf("attach reply %s", msgName(typ))
	}
	// The modern Rattach carries a trailing agreed-features word; a
	// legacy client stops decoding before it. Decode it here to pin the
	// agreement: request-absent means empty set, whatever the server
	// supports.
	d := dec{b: payload}
	d.str() // fs name
	d.u64() // session id
	d.u64() // resume token
	if agreed := d.u32(); d.err != nil || agreed != 0 {
		t.Fatalf("agreed features = %#x (err %v), want 0", agreed, d.err)
	}

	// Open a file the legacy way to get a real handle.
	e = enc{}
	e.u32(uint32(vfs.O_RDWR | vfs.O_CREATE))
	e.u32(0644)
	e.str("/a")
	if err := writeFrame(cs, nil, tOpen, 2, e.b); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err = readFrame(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != rOpen {
		t.Fatalf("open reply %s", msgName(typ))
	}
	d = dec{b: payload}
	handle := d.u64()
	if d.err != nil {
		t.Fatal(d.err)
	}

	// A Tlease on the un-negotiated session is a protocol violation.
	e = enc{}
	e.u64(handle)
	if err := writeFrame(cs, nil, tLease, 3, e.b); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err = readFrame(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != rError {
		t.Fatalf("Tlease on legacy session answered %s, want Rerror", msgName(typ))
	}
	if derr := decodeError(payload); !errors.Is(derr, vfs.ErrInval) {
		t.Fatalf("Tlease rejection = %v, want ErrInval", derr)
	}
	if n := srv.ActiveLeases(); n != 0 {
		t.Fatalf("legacy session holds %d leases", n)
	}
}

// TestWireDowngradeOldServer runs a lease-requesting client against a
// hand-rolled legacy server whose Rattach omits the trailing features
// word. The client must settle on the empty set and keep every byte on
// the copy path.
func TestWireDowngradeOldServer(t *testing.T) {
	cs, ss := net.Pipe()
	defer ss.Close()
	done := make(chan error, 1)
	go func() {
		typ, rid, payload, err := readFrame(ss, nil)
		if err != nil {
			done <- err
			return
		}
		if typ != tAttach {
			done <- errors.New("first frame not Tattach")
			return
		}
		d := dec{b: payload}
		if root := d.str(); root != "/" {
			done <- errors.New("bad root " + root)
			return
		}
		// Legacy Rattach: name + session id + token, nothing after.
		var e enc
		e.str("legacy")
		e.u64(1)
		e.u64(42)
		done <- writeFrame(ss, nil, rAttach, rid, e.b)
	}()

	c, err := DialConfig(cs, ClientConfig{Root: "/", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the raw conn down rather than Client.Close: the legacy stub
	// above has already exited, so a Tdetach would block on the pipe.
	defer cs.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.features != 0 {
		t.Fatalf("client agreed features = %#x against a legacy server, want 0", c.features)
	}
	if c.leasesOn() {
		t.Fatal("leasesOn() on a legacy session")
	}
}
