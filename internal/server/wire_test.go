package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"splitfs/internal/vfs"
)

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
	e.fileInfo(vfs.FileInfo{Ino: 9, Size: -1, Blocks: 3, IsDir: true, Nlink: 2})

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
	fi := d.fileInfo()
	if fi.Ino != 9 || fi.Size != -1 || fi.Blocks != 3 || !fi.IsDir || fi.Nlink != 2 {
		t.Fatalf("fileInfo = %+v", fi)
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

// TestMessageRoundTrip frames one payload of every message type, laid
// out as the client and the session encode it, and reads each back
// through one reused frame buffer, as a connection does: type, request
// id and every field come back as sent. A message constant the table
// does not cover, or one msgName cannot name, fails it.
func TestMessageRoundTrip(t *testing.T) {
	fi := vfs.FileInfo{Ino: 12, Size: 1 << 33, Blocks: 9, IsDir: true, Nlink: 3}
	layouts := map[uint8][]any{
		tAttach:    {"/t0", uint8(1), featLeases, uint64(0xfeed)},
		rAttach:    {"splitfs-strict", uint64(7), uint64(0xfeed), featLeases},
		tDetach:    {},
		rDetach:    {},
		tOpen:      {uint32(vfs.O_CREATE | vfs.O_RDWR), uint32(0o644), "/data"},
		rOpen:      {uint64(3)},
		tClose:     {uint64(3)},
		rClose:     {},
		tPread:     {uint64(3), int64(1 << 40), uint32(512)},
		rPread:     {[]byte("read back")},
		tPwrite:    {uint64(3), int64(1 << 33), []byte("at an offset")},
		rPwrite:    {uint32(12)},
		tTruncate:  {uint64(3), int64(1 << 20)},
		rTruncate:  {},
		tFsync:     {uint64(3)},
		rFsync:     {},
		tFstat:     {uint64(3)},
		rFstat:     {fi},
		tStat:      {"/data"},
		rStat:      {fi},
		tReadDir:   {"/"},
		rReadDir:   {uint32(2), "a", uint64(5), uint8(0), "d", uint64(6), uint8(1)},
		tMkdir:     {uint32(0o755), "/d"},
		rMkdir:     {},
		tUnlink:    {"/a"},
		rUnlink:    {},
		tRmdir:     {"/d"},
		rRmdir:     {},
		tRename:    {"/r0", "/r1"},
		rRename:    {},
		tSyncAll:   {},
		rSyncAll:   {},
		rError:     {uint32(codeNotExist), "stat /x: file does not exist"},
		tReopen:    {uint64(3), uint32(vfs.O_RDWR), uint32(0o644), uint16(2), "/r0", "/r1"},
		rReopen:    {},
		tLease:     {uint64(3)},
		rLease:     {uint64(1), uint64(2), int64(8192), uint32(1), int64(0), int64(1 << 21), int64(8192)},
		tRevoke:    {uint64(1)},
		tRevokeAck: {uint64(1)},
		rRevokeAck: {},
	}
	// Retired slots, kept unused: Tread/Rread, Twrite/Rwrite,
	// Tseek/Rseek and Treattach/Rreattach.
	retired := map[uint8]bool{rClose + 1: true, rClose + 2: true, rClose + 3: true, rClose + 4: true,
		rPwrite + 1: true, rPwrite + 2: true, rError + 1: true, rError + 2: true}
	type form struct {
		typ    uint8
		fields []any
	}
	var forms []form
	for typ := tAttach; typ <= rRevokeAck; typ++ {
		if retired[typ] {
			continue
		}
		fields, ok := layouts[typ]
		if !ok {
			t.Fatalf("message %d has no layout here", typ)
		}
		if name := msgName(typ); strings.HasPrefix(name, "msg(") {
			t.Fatalf("message %d has no name", typ)
		}
		forms = append(forms, form{typ, fields})
	}
	// An O_APPEND handle's write: Tpwrite at offEOF, and the offset the
	// append ended at after Rpwrite's count.
	forms = append(forms, form{tPwrite, []any{uint64(3), offEOF, []byte("appended")}},
		form{rPwrite, []any{uint32(8), int64(4104)}})
	var wire bytes.Buffer
	var wbuf, rbuf []byte
	for _, fm := range forms {
		typ, fields := fm.typ, fm.fields
		var e enc
		for _, f := range fields {
			switch v := f.(type) {
			case uint8:
				e.u8(v)
			case uint16:
				e.u16(v)
			case uint32:
				e.u32(v)
			case uint64:
				e.u64(v)
			case int64:
				e.i64(v)
			case string:
				e.str(v)
			case []byte:
				e.bytes(v)
			case vfs.FileInfo:
				e.fileInfo(v)
			default:
				t.Fatalf("%s: field of type %T", msgName(typ), f)
			}
		}
		id := uint32(typ) * 1000
		wire.Reset()
		if err := writeFrame(&wire, &wbuf, typ, id, e.b); err != nil {
			t.Fatalf("%s: %v", msgName(typ), err)
		}
		gtyp, gid, payload, err := readFrame(&wire, &rbuf)
		if err != nil || gtyp != typ || gid != id {
			t.Fatalf("%s: read back type %d id %d: %v", msgName(typ), gtyp, gid, err)
		}
		d := dec{b: payload}
		for i, f := range fields {
			var got any
			switch f.(type) {
			case uint8:
				got = d.u8()
			case uint16:
				got = d.u16()
			case uint32:
				got = d.u32()
			case uint64:
				got = d.u64()
			case int64:
				got = d.i64()
			case string:
				got = d.str()
			case []byte:
				got = d.bytes()
			case vfs.FileInfo:
				got = d.fileInfo()
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("%s field %d: %v, want %v", msgName(typ), i, got, f)
			}
		}
		if d.err != nil || len(d.b) != 0 {
			t.Fatalf("%s: %v, %d bytes left over", msgName(typ), d.err, len(d.b))
		}
	}
}
