package server

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// faultBackend builds a small direct backend for in-package wire tests.
func faultBackend(t *testing.T) vfs.FileSystem {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 8 << 20, Clock: sim.NewClock()})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{MaxInodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return kfs
}

// faultClient dials a plain session whose server side runs behind a
// FaultConn, so tests can tear and duplicate reply frames.
func faultClient(t *testing.T, srv *Server) (*Client, *FaultConn) {
	t.Helper()
	cs, ss := net.Pipe()
	fc := NewFaultConn(ss)
	go srv.ServeConn(fc)
	c, err := DialConfig(cs, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	return c, fc
}

// A reply cut mid-frame must surface on the client as a connection-lost
// error that unwraps to the torn-frame sentinel — not a hang, not a
// misattributed reply.
func TestFaultMidFrameCut(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	c, fc := faultClient(t, srv)

	if _, err := c.Stat("/"); err != nil {
		t.Fatal(err)
	}
	fc.CutWriteAfter(4) // inside the next reply's frame header
	_, err := c.Stat("/")
	if err == nil {
		t.Fatal("stat after mid-frame cut: want error, got nil")
	}
	if !errors.Is(err, errConnLost) {
		t.Fatalf("want errConnLost chain, got %v", err)
	}
	if !errors.Is(err, errTornFrame) {
		t.Fatalf("want errTornFrame in chain, got %v", err)
	}
	// The transport is poisoned: further calls fail fast with the same
	// classification instead of hanging.
	if _, err := c.Stat("/"); !errors.Is(err, errConnLost) {
		t.Fatalf("second call after cut: want errConnLost, got %v", err)
	}
}

// A client whose own write dies inside the frame header must poison its
// transport, and the server must classify the disconnect as torn.
func TestFaultPartialHeaderWrite(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	cs, ss := net.Pipe()
	fc := NewFaultConn(cs)
	go srv.ServeConn(ss)
	c, err := DialConfig(fc, ClientConfig{Root: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/"); err != nil {
		t.Fatal(err)
	}

	fc.CutWriteAfter(3) // three bytes of the next request's length field
	if _, err := c.Stat("/"); !errors.Is(err, errConnLost) {
		t.Fatalf("want errConnLost after partial header write, got %v", err)
	}
	for i := 0; srv.Stats().TornDisconnects == 0; i++ {
		if i > 1e6 {
			t.Fatalf("server never classified the torn disconnect: %+v", srv.Stats())
		}
		runtime.Gosched()
	}
}

// A duplicated reply frame must be dropped by request ID: the call it
// answers succeeds once, and the following call is not misattributed.
func TestFaultDuplicatedReply(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	c, fc := faultClient(t, srv)

	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fc.DuplicateNextWrite()
	fi, err := c.Stat("/d")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat with duplicated reply: %+v, %v", fi, err)
	}
	// The duplicate is sitting in the stream; the next exchange must
	// still pair correctly.
	fi, err = c.Stat("/")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat after duplicated reply: %+v, %v", fi, err)
	}
}

// A multi-chunk write whose transport dies between chunks must report
// the acked and in-flight byte counts, not silently return a bare error
// that reads as "nothing was written".
func TestFaultShortWriteCounts(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	c, fc := faultClient(t, srv)

	f, err := c.OpenFile("/big", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An Rwrite reply frame is 13 bytes (4 length + 1 type + 4 request
	// id + 4 count): let exactly one chunk ack, then cut.
	fc.CutWriteAfter(13)
	data := bytes.Repeat([]byte{'y'}, 2*chunkBytes+100)
	n, err := f.WriteAt(data, 0)
	if err == nil {
		t.Fatalf("want error after cut, wrote %d", n)
	}
	var short *ShortIOError
	if !errors.As(err, &short) {
		t.Fatalf("want ShortIOError, got %v", err)
	}
	if short.Op != "write" || short.Acked != chunkBytes || short.InFlight != chunkBytes {
		t.Fatalf("short write counts: %+v", short)
	}
	if n != chunkBytes {
		t.Fatalf("returned count %d, want %d", n, chunkBytes)
	}
	if !errors.Is(err, errConnLost) {
		t.Fatalf("ShortIOError must unwrap to errConnLost, got %v", err)
	}
}

// A clean detach closes the stream at a frame boundary and must be
// classified as a clean close, not a torn disconnect.
func TestFaultCleanCloseClassified(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	c, _ := faultClient(t, srv)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; srv.Stats().CleanCloses == 0; i++ {
		if i > 1e6 {
			t.Fatalf("clean close never classified: %+v", srv.Stats())
		}
		runtime.Gosched()
	}
	if s := srv.Stats(); s.TornDisconnects != 0 {
		t.Fatalf("clean close misclassified as torn: %+v", s)
	}
}

// Frames that arrive behind a Tdetach — a client's advisory TrevokeAck
// can — are dropped, not answered by hanging up: a server that closed
// the connection there could cut off a client still writing, whose
// failed write then poisons its transport before it has read the
// Rdetach. net.Pipe makes the check exact: a write returns only once the
// server has read it, or fails once the server has closed.
func TestFramesBehindDetachAreDropped(t *testing.T) {
	srv := New(faultBackend(t), Config{})
	defer srv.Close()
	cs, ss := net.Pipe()
	defer cs.Close()
	go srv.ServeConn(ss)
	br := bufio.NewReader(cs)
	if _, _, _, err := attachExchange(cs, br, 0, "/", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(cs, nil, tDetach, 1, nil); err != nil {
		t.Fatal(err)
	}
	if rtyp, _, _, err := readFrame(br, nil); err != nil || rtyp != rDetach {
		t.Fatalf("detach reply: %s, %v", msgName(rtyp), err)
	}
	var e enc
	e.str("/")
	for id := uint32(2); id <= 3; id++ {
		if err := writeFrame(cs, nil, tStat, id, e.b); err != nil {
			t.Fatalf("frame %d behind the detach: %v (the server hung up)", id, err)
		}
	}
}
