package server

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"splitfs/internal/vfs"
)

// tap records the frames crossing one client connection, in the order
// the client wrote and read them, into its transcript while a step is
// open.
type tap struct {
	rwc        io.ReadWriteCloser
	t          *transcript
	sent, recv []byte // bytes short of a whole frame, per direction
}

type transcript struct {
	open   bool
	frames []string // hex, one frame each
}

func (x *tap) Write(b []byte) (int, error) {
	n, err := x.rwc.Write(b)
	x.sent = x.t.cut(append(x.sent, b[:n]...))
	return n, err
}

func (x *tap) Read(b []byte) (int, error) {
	n, err := x.rwc.Read(b)
	x.recv = x.t.cut(append(x.recv, b[:n]...))
	return n, err
}

func (x *tap) Close() error { return x.rwc.Close() }

// cut moves every whole frame at the head of b into the transcript and
// returns the rest.
func (tr *transcript) cut(b []byte) []byte {
	for len(b) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(b))
		if len(b) < n {
			break
		}
		if tr.open {
			tr.frames = append(tr.frames, hex.EncodeToString(b[:n]))
		}
		b = b[n:]
	}
	return b
}

// TestGoldenFrames pins the exact bytes of one frame of every message
// form, captured from real sessions over Server.Pipe: a plain session
// running every namespace and handle operation (an O_APPEND write is a
// Tpwrite at offEOF, whose Rpwrite carries the end; a stat of a missing
// name draws an Rerror), a leased session whose truncate revokes its own
// lease (the Trevoke push and the Trevokeack round), and a resumable
// session that loses its server and comes back cold (a Tattach carrying
// its token, a replayed Treopen). Resume tokens are random and segment
// ids process-wide, so the pins name them as {token1}, {token2} and
// {seg}, filled in with the values this run drew. Every named message
// type must appear.
func TestGoldenFrames(t *testing.T) {
	fs := ext4daxBackend(t)
	srv := New(fs, Config{})
	tr := &transcript{}
	dial := func(s *Server) io.ReadWriteCloser {
		rwc, err := s.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		return &tap{rwc: rwc, t: tr}
	}
	got := map[string][]string{}
	var order []string
	step := func(name string, fn func() error) {
		t.Helper()
		tr.open, tr.frames = true, nil
		err := fn()
		tr.open = false
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = tr.frames
		order = append(order, name)
	}
	noErr := func(_ any, err error) error { return err }

	// A plain session.
	var c *Client
	step("attach", func() (err error) {
		c, err = DialConfig(dial(srv), ClientConfig{Root: "/"})
		return err
	})
	step("mkdir", func() error { return c.Mkdir("/d", 0o755) })
	var f, a vfs.File
	step("open", func() (err error) {
		f, err = c.OpenFile("/d/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
		return err
	})
	step("pwrite", func() error { return noErr(f.WriteAt([]byte("golden"), 8)) })
	if a, _ = c.OpenFile("/d/f", vfs.O_WRONLY|vfs.O_APPEND, 0); a == nil {
		t.Fatal("append open failed")
	}
	step("append", func() error { return noErr(a.Write([]byte("tail"))) })
	buf := make([]byte, 4)
	step("pread", func() error { return noErr(f.ReadAt(buf, 8)) })
	step("truncate", func() error { return f.Truncate(16) })
	step("fsync", func() error { return f.Sync() })
	step("fstat", func() error { return noErr(f.Stat()) })
	step("stat", func() error { return noErr(c.Stat("/d/f")) })
	step("readdir", func() error { return noErr(c.ReadDir("/d")) })
	step("rename", func() error { return c.Rename("/d/f", "/d/g") })
	step("error", func() error {
		if _, err := c.Stat("/missing"); err == nil {
			return fmt.Errorf("stat of a missing name succeeded")
		}
		return nil
	})
	step("syncall", func() error { return c.SyncAll() })
	step("close", func() error { return a.Close() })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	step("unlink", func() error { return c.Unlink("/d/g") })
	step("rmdir", func() error { return c.Rmdir("/d") })
	l, err := c.OpenFile("/l", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err == nil {
		_, err = l.WriteAt([]byte("leased!!"), 0)
	}
	if err == nil {
		err = l.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	step("detach", func() error { return c.Close() })

	// A leased session whose truncate revokes its own lease.
	var lc *Client
	step("attach leases", func() (err error) {
		lc, err = DialConfig(dial(srv), ClientConfig{Root: "/", EnableLeases: true})
		return err
	})
	lf, err := lc.OpenFile("/l", vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	step("lease", func() error { return noErr(lf.ReadAt(buf, 0)) })
	var seg uint64
	if L := lf.(*File).lease; L != nil {
		seg = L.seg.id
	}
	step("revoke", func() error { return lf.Truncate(0) })
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumable session whose server is replaced: the resume is cold.
	cur := srv
	var rc *Client
	step("attach resumable", func() (err error) {
		rc, err = DialResumableConfig(func() (io.ReadWriteCloser, error) { return dial(cur), nil }, ClientConfig{Root: "/"})
		return err
	})
	token1 := rc.rs.token
	if _, err := rc.OpenFile("/r", vfs.O_CREATE|vfs.O_RDWR, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	cur = New(fs, Config{})
	defer cur.Close()
	step("cold resume", func() error { return noErr(rc.Stat("/r")) })
	token2 := rc.rs.token
	rc.Close()

	fill := strings.NewReplacer("{token1}", le64(token1), "{token2}", le64(token2), "{seg}", le64(seg))
	want := goldenFrames
	seen := map[uint8]bool{}
	for _, name := range order {
		frames := got[name]
		for _, fr := range frames {
			b, _ := hex.DecodeString(fr)
			seen[b[4]&^flagReplay] = true
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("step %q has no pin", name)
			continue
		}
		if len(w) != len(frames) {
			t.Errorf("%s: %d frames, want %d:\n%s", name, len(frames), len(w), strings.Join(frames, "\n"))
			continue
		}
		for i := range w {
			if exp := fill.Replace(w[i]); frames[i] != exp {
				t.Errorf("%s frame %d:\n got %s\nwant %s", name, i, frames[i], exp)
			}
		}
	}
	for typ, name := range msgNames {
		if !seen[typ] {
			t.Errorf("no frame of %s", name)
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "\t%q: {\n", name)
			for _, fr := range got[name] {
				fmt.Fprintf(&b, "\t\t%q,\n", fr)
			}
			b.WriteString("\t},\n")
		}
		t.Logf("captured:\n%s", b.String())
	}
}

func le64(v uint64) string { return hex.EncodeToString(binary.LittleEndian.AppendUint64(nil, v)) }

// goldenFrames is each step's frames, in the order they crossed the
// connection.
var goldenFrames = map[string][]string{
	"attach":   {"11000000010000000001002f000000000000000000", "1f00000002000000000800657874342d64617801000000000000000000000000000000"},
	"mkdir":    {"0d0000001d01000000ed01000002002f64", "050000001e01000000"},
	"open":     {"13000000050200000042000000a401000004002f642f66", "0d00000006020000000300000000000000"},
	"pwrite":   {"1f0000000f030000000300000000000000080000000000000006000000676f6c64656e", "110000001003000000060000000e00000000000000"},
	"append":   {"1d0000000f050000000400000000000000ffffffffffffffff040000007461696c", "110000001005000000040000001200000000000000"},
	"pread":    {"190000000d060000000300000000000000080000000000000004000000", "0d0000000e0600000004000000676f6c64"},
	"truncate": {"15000000130700000003000000000000001000000000000000", "050000001407000000"},
	"fsync":    {"0d00000015080000000300000000000000", "050000001608000000"},
	"fstat":    {"0d00000017090000000300000000000000", "2200000018090000000300000000000000100000000000000001000000000000000001000000"},
	"stat":     {"0b000000190a00000004002f642f66", "220000001a0a0000000300000000000000100000000000000001000000000000000001000000"},
	"readdir":  {"090000001b0b00000002002f64", "150000001c0b00000001000000010066030000000000000000"},
	"rename":   {"11000000230c00000004002f642f6604002f642f67", "05000000240c000000"},
	"error": {"0f000000190d00000008002f6d697373696e67",
		"2d000000270d00000001000000220073746174202f6d697373696e673a2066696c6520646f6573206e6f74206578697374"},
	"syncall":       {"05000000250e000000", "05000000260e000000"},
	"close":         {"0d000000070f0000000400000000000000", "05000000080f000000"},
	"unlink":        {"0b0000001f1100000004002f642f67", "050000002011000000"},
	"rmdir":         {"09000000211200000002002f64", "050000002212000000"},
	"detach":        {"050000000316000000", "050000000416000000"},
	"attach leases": {"11000000010000000001002f000000000000000000", "1f00000002000000000800657874342d64617802000000000000000000000000000000"},
	"lease": {"0d0000002c020000000300000000000000",
		"390000002d02000000{seg}0000000000000000080000000000000001000000000000000000000000603000000000000800000000000000"},
	"revoke": {
		"15000000130300000003000000000000000000000000000000", // Ttruncate
		"0d0000002e00000000{seg}",                            // Trevoke, pushed ahead of the reply
		"050000001403000000",                                 // Rtruncate
		"0d0000002f04000000{seg}",                            // Trevokeack
		"050000003004000000",                                 // Rrevokeack
	},
	"attach resumable": {"11000000010000000001002f010000000000000000", "1f00000002000000000800657874342d6461780300000000000000{token1}"},
	"cold resume": {
		"11000000010000000001002f01{token1}",                             // Tattach presenting the token
		"1f00000002000000000800657874342d6461780100000000000000{token2}", // a fresh session
		"1b000000aa04000000030000000000000042000000a4010000010002002f72", // Treopen, replayed
		"050000002b04000000",
		"09000000190500000002002f72",
		"220000001a050000000500000000000000000000000000000000000000000000000001000000",
	},
}
