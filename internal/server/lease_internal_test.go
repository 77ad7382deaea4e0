package server

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
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
// instead of handing out a mapping the client never negotiated for. A
// resumable Tattach without the trailing resume token (a client from
// before the token joined Tattach) gets a fresh session of its own, with
// a live resumable session beside it to adopt by mistake.
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

	var tokens []uint64
	for range 2 {
		rc, rs := net.Pipe()
		defer rc.Close()
		go srv.ServeConn(rs)
		e = enc{}
		e.str("/")
		e.u8(1) // resumable
		e.u32(0)
		if err := writeFrame(rc, nil, tAttach, 1, e.b); err != nil {
			t.Fatal(err)
		}
		typ, _, payload, err := readFrame(rc, nil)
		if err != nil || typ != rAttach {
			t.Fatalf("token-less resumable attach answered %s (%v)", msgName(typ), err)
		}
		d = dec{b: payload}
		d.str()
		d.u64()
		if tokens = append(tokens, d.u64()); d.err != nil {
			t.Fatal(d.err)
		}
	}
	if tokens[0] == 0 || tokens[1] == 0 || tokens[0] == tokens[1] || srv.SessionCount() != 3 {
		t.Fatalf("token-less resumable attaches got tokens %#x with %d sessions live; want two fresh sessions", tokens, srv.SessionCount())
	}
}

// TestWireDowngradeOldServer runs a lease-requesting client against a
// hand-rolled legacy server whose Rattach omits the trailing features
// word. The client must settle on the empty set and keep every byte on
// the copy path. A resumable client against a legacy server that
// ignores Tattach's trailing resume token gets a new token on every
// dial, and must read it as a fresh session: its resume goes cold,
// replaying the acknowledged request as well as the unanswered one.
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
	var presented []uint64 // resume tokens the legacy server was shown
	var replayed []string  // mkdir paths it saw re-sent
	var stubs sync.WaitGroup
	dials := 0
	redial := func() (io.ReadWriteCloser, error) {
		dials++
		first, id := dials == 1, uint64(dials)
		cs, ss := net.Pipe()
		stubs.Add(1)
		go func() {
			defer stubs.Done()
			defer ss.Close()
			_, rid, payload, err := readFrame(ss, nil)
			if err != nil {
				return
			}
			d := dec{b: payload}
			d.str()
			d.u8()
			d.u32()
			if len(d.b) >= 8 {
				presented = append(presented, d.u64())
			}
			var e enc
			e.str("legacy")
			e.u64(id)
			e.u64(40 + id)
			writeFrame(ss, nil, rAttach, rid, e.b)
			// The first connection answers one request, then drops.
			for served := 0; !first || served < 1; served++ {
				typ, rid, payload, err := readFrame(ss, nil)
				if err != nil {
					return
				}
				if typ&flagReplay != 0 {
					d := dec{b: payload}
					d.u32()
					replayed = append(replayed, d.str())
				}
				writeFrame(ss, nil, typ&^flagReplay+1, rid, nil)
			}
		}()
		return cs, nil
	}
	rc, err := DialResumableConfig(redial, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/d", "/e"} {
		if err := rc.Mkdir(p, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	rc.Close()
	stubs.Wait()
	if !slices.Equal(presented, []uint64{41}) || !slices.Equal(replayed, []string{"/d", "/e"}) {
		t.Fatalf("legacy server was shown tokens %v and saw %v replayed; want [41] and a cold replay of [/d /e]", presented, replayed)
	}
}
