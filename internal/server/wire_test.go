package server

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// ext4daxBackend is a direct ext4-dax file system on a 64 MB device, for
// tests that serve a real backend.
func ext4daxBackend(t *testing.T) vfs.FileSystem {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock()})
	fs, err := ext4dax.Mkfs(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello wire")
	if err := writeFrame(&buf, nil, tOpen, 42, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != tOpen || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: typ=%d id=%d payload=%q", typ, id, got)
	}
}

func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, maxFrame)
	if err := writeFrame(&buf, nil, tPwrite, 1, big); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized write frame: err=%v", err)
	}
	// An oversized length header must be rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, _, err := readFrame(&buf, nil); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized read frame: err=%v", err)
	}
}

func TestCodecFields(t *testing.T) {
	var e enc
	e.u8(7)
	e.u32(1 << 30)
	e.u64(1 << 60)
	e.i64(-5)
	e.str("päth/with/ütf8")
	e.bytes([]byte{1, 2, 3})
	e.bool(true)

	d := dec{b: e.b}
	if got := d.u8(); got != 7 {
		t.Fatalf("u8 = %d", got)
	}
	if got := d.u32(); got != 1<<30 {
		t.Fatalf("u32 = %d", got)
	}
	if got := d.u64(); got != 1<<60 {
		t.Fatalf("u64 = %d", got)
	}
	if got := d.i64(); got != -5 {
		t.Fatalf("i64 = %d", got)
	}
	if got := d.str(); got != "päth/with/ütf8" {
		t.Fatalf("str = %q", got)
	}
	if got := d.bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if got := d.u8(); got != 1 {
		t.Fatalf("bool = %d", got)
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	// Reading past the end must poison, not panic.
	if d.u64(); d.err == nil {
		t.Fatal("decoder did not flag truncation")
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	sentinels := []error{
		vfs.ErrNotExist, vfs.ErrExist, vfs.ErrIsDir, vfs.ErrNotDir,
		vfs.ErrNotEmpty, vfs.ErrNoSpace, vfs.ErrBadFD, vfs.ErrInval,
		vfs.ErrReadOnly, vfs.ErrClosed,
	}
	for _, want := range sentinels {
		wrapped := vfs.WrapPath("open", "/x", want)
		typ, _, payload := encodeError(1, wrapped)
		if typ != rError {
			t.Fatalf("encodeError type = %d", typ)
		}
		got := decodeError(payload)
		if !errors.Is(got, want) {
			t.Fatalf("decoded %v does not errors.Is(%v)", got, want)
		}
		if got.Error() != wrapped.Error() {
			t.Fatalf("message lost: %q != %q", got.Error(), wrapped.Error())
		}
	}
	// io.EOF must come back as the identical sentinel: io consumers
	// compare with ==.
	_, _, payload := encodeError(1, io.EOF)
	if got := decodeError(payload); got != io.EOF {
		t.Fatalf("EOF round trip = %v", got)
	}
	// Unknown errors degrade to the generic code with the message kept.
	_, _, payload = encodeError(1, errors.New("weird backend failure"))
	got := decodeError(payload)
	if got.Error() != "weird backend failure" {
		t.Fatalf("generic message = %q", got.Error())
	}
	var re *RemoteError
	if !errors.As(got, &re) || re.Unwrap() != nil {
		t.Fatalf("generic error should be a RemoteError with no sentinel, got %T", got)
	}
}

// TestMessageRoundTrip frames one payload of every message type from
// the code's own layouts, with a distinct non-zero value in every field
// of msg, and reads each back through one reused frame buffer, as a
// connection does: type, request id and exactly the fields the type's
// row names come back as sent, every other field zero. Any put/get skew
// — two fields swapped in one direction, a field one side skips — fails
// it. Every named message has a row (an empty one when it carries no
// fields) and every row a name. Every field is required: a payload cut
// short anywhere, at a field's end or inside one, or one byte past its
// row, is refused.
func TestMessageRoundTrip(t *testing.T) {
	full := msg{
		handle: 3, off: 1 << 40, count: 512, flag: uint32(vfs.O_CREATE | vfs.O_RDWR), perm: 0o644,
		path: "/data", path2: "/r1", chain: []string{"/r0", "/r1"}, data: []byte("at an offset"),
		info:    vfs.FileInfo{Ino: 12, Size: 1 << 33, Blocks: 9, IsDir: true, Nlink: 3},
		entries: []vfs.DirEntry{{Name: "a", Ino: 5}, {Name: "d", Ino: 6, IsDir: true}},
		seg:     21, epoch: 22, size: 8192, extents: []vfs.Extent{{FileOff: 4096, DevOff: 1 << 21, Length: 8192}},
		resumable: true, token: 0xfeed, session: 7, name: "splitfs-strict",
		end: 4104, code: uint32(codeInval), text: "stat /x: invalid argument",
	}
	fields := reflect.ValueOf(full)
	var wire bytes.Buffer
	var wbuf, rbuf []byte
	for i := range len(layouts) {
		typ, row := uint8(i), layouts[i]
		if _, named := msgNames[typ]; named != (row != nil) {
			t.Fatalf("message %d: named %v, has a row %v", typ, named, row != nil)
		}
		if row == nil {
			continue
		}
		var e enc
		put(typ, &full, &e)
		id := uint32(typ) * 1000
		wire.Reset()
		if err := writeFrame(&wire, &wbuf, typ, id, e.b); err != nil {
			t.Fatalf("%s: %v", msgName(typ), err)
		}
		gtyp, gid, payload, err := readFrame(&wire, &rbuf)
		if err != nil || gtyp != typ || gid != id {
			t.Fatalf("%s: read back type %d id %d: %v", msgName(typ), gtyp, gid, err)
		}
		var got msg
		if err := get(typ, payload, &got); err != nil {
			t.Fatalf("%s: %v", msgName(typ), err)
		}
		set := 0
		v := reflect.ValueOf(got)
		for j := range v.NumField() {
			if v.Field(j).IsZero() {
				continue
			}
			set++
			if g, w := fmt.Sprintf("%#v", v.Field(j)), fmt.Sprintf("%#v", fields.Field(j)); g != w {
				t.Errorf("%s: %s = %s, want %s", msgName(typ), v.Type().Field(j).Name, g, w)
			}
		}
		if set != len(row) {
			t.Errorf("%s: %d fields came back set, want %d", msgName(typ), set, len(row))
		}
		for n := range len(payload) {
			if get(typ, payload[:n], &got) == nil {
				t.Errorf("%s: the first %d of its %d payload bytes decoded", msgName(typ), n, len(payload))
				break
			}
		}
		if get(typ, append(bytes.Clone(payload), 0), &got) == nil {
			t.Errorf("%s: a payload one byte long decoded", msgName(typ))
		}
	}
}

// TestTrailingBytesRefused: a Tstat with a byte after its path draws an
// Rerror, not a stat of the path it starts with, and the session goes
// on serving.
func TestTrailingBytesRefused(t *testing.T) {
	srv := New(ext4daxBackend(t), Config{})
	defer srv.Close()
	rwc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer rwc.Close()
	exchange := func(typ uint8, id uint32, payload []byte) (uint8, []byte) {
		t.Helper()
		if err := writeFrame(rwc, nil, typ, id, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, rid, rp, err := readFrame(rwc, nil)
		if err != nil || rid != id {
			t.Fatalf("%s: reply id %d: %v", msgName(typ), rid, err)
		}
		return rtyp, rp
	}
	var e enc
	put(tAttach, &msg{path: "/"}, &e)
	if rtyp, _ := exchange(tAttach, 1, e.b); rtyp != rAttach {
		t.Fatalf("attach answered %s", msgName(rtyp))
	}
	e = enc{}
	put(tStat, &msg{path: "/"}, &e)
	rtyp, rp := exchange(tStat, 2, append(bytes.Clone(e.b), 0))
	if err := decodeError(rp); rtyp != rError || !strings.Contains(err.Error(), errTrailing.Error()) {
		t.Fatalf("Tstat with a trailing byte answered %s: %v", msgName(rtyp), err)
	}
	if rtyp, _ := exchange(tStat, 3, e.b); rtyp != rStat {
		t.Fatalf("the next Tstat answered %s", msgName(rtyp))
	}
}

// TestWireFormatInOneFile is the guard behind "the wire format is
// written once": outside wire.go no non-test source of the package calls
// an enc or dec primitive or reads a payload with binary.LittleEndian —
// a message's fields are put and got through layouts. Each exception is
// named with its reason.
func TestWireFormatInOneFile(t *testing.T) {
	primitives := map[string]bool{"u8": true, "u16": true, "u32": true, "u64": true, "i64": true,
		"bool": true, "str": true, "bytes": true, "bytesFrom": true, "take": true}
	allowed := map[string]bool{
		// Rpread's data is read straight into the reply: one fData field,
		// with no copy through a msg.
		"session.go:execute:bytesFrom": true,
		// A resume token is drawn from random bytes, not a payload.
		"server.go:mintToken:binary.LittleEndian": true,
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if path == "wire.go" || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var use string
				var sel *ast.SelectorExpr
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, _ = n.Fun.(*ast.SelectorExpr); sel != nil && primitives[sel.Sel.Name] {
						use = sel.Sel.Name
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "binary" && n.Sel.Name == "LittleEndian" {
						sel, use = n, "binary.LittleEndian"
					}
				}
				if use == "" {
					return true
				}
				if !allowed[path+":"+fd.Name.Name+":"+use] {
					t.Errorf("%s: %s calls %s outside wire.go", fset.Position(sel.Pos()), fd.Name.Name, use)
				}
				return true
			})
		}
	}
}
