package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// frameFixtures are wire_test.go's fixtures as byte streams: a frame with a
// payload, one carrying every codec primitive, two frames back to back, a
// length header past the bound, and a frame cut short; then every golden
// frame.
func frameFixtures(t testing.TB) [][]byte {
	frame := func(typ uint8, id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, nil, typ, id, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var e enc
	e.u8(7)
	e.u32(1 << 30)
	e.u64(1 << 60)
	e.i64(-5)
	e.str("päth/with/ütf8")
	e.bytes([]byte{1, 2, 3})
	e.u64(9)
	e.i64(-1)
	e.i64(3)
	e.bool(true)
	e.u32(2)
	hello := frame(tOpen, 42, []byte("hello wire"))
	fixtures := [][]byte{
		hello,
		frame(tPwrite, 1, e.b),
		append(bytes.Clone(hello), frame(tStat, 43, nil)...),
		{0xff, 0xff, 0xff, 0xff},
		hello[:len(hello)-3],
	}
	ids := strings.NewReplacer("{token1}", le64(1), "{token2}", le64(2), "{seg}", le64(3))
	for _, frames := range goldenFrames {
		for _, fr := range frames {
			b, err := hex.DecodeString(ids.Replace(fr))
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, b)
		}
	}
	return fixtures
}

// FuzzFrame: whatever bytes arrive on a connection, readFrame and get
// return or refuse — they never panic, never hand out more than the
// stream held, and never hold a buffer past the frame bound. A frame
// that does parse is the frame writeFrame would have written, and a
// stream ends in exactly one of three ways: cleanly between frames, torn
// inside one, or with a length no frame may have. Each frame's payload
// is decoded as its own type, as a session decodes a request: get
// refuses it or decodes it to a msg that put renders back to a payload
// decoding to the same msg, and a payload one byte short or one byte
// long is refused.
func FuzzFrame(f *testing.F) {
	for _, fx := range frameFixtures(f) {
		f.Add(fx)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// One frame buffer and one write scratch for the whole stream,
		// as a connection reuses them.
		var rbuf, wbuf []byte
		for {
			at := len(data) - r.Len()
			typ, id, payload, err := readFrame(r, &rbuf)
			if err != nil {
				if err != io.EOF && !errors.Is(err, errTornFrame) && !errors.Is(err, errFrameTooBig) {
					t.Fatalf("readFrame at byte %d: %v", at, err)
				}
				if err == io.EOF && at != len(data) {
					t.Fatalf("clean EOF at byte %d of %d", at, len(data))
				}
				return
			}
			if cap(payload) > maxFrame-frameHeader {
				t.Fatalf("a payload buffer of %d bytes, bound %d", cap(payload), maxFrame-frameHeader)
			}
			var again bytes.Buffer
			if err := writeFrame(&again, &wbuf, typ, id, payload); err != nil || !bytes.Equal(again.Bytes(), data[at:len(data)-r.Len()]) {
				t.Fatalf("frame at byte %d does not write back as it read (%v)", at, err)
			}
			typ &^= flagReplay
			var m, m2 msg
			if err := get(typ, payload, &m); err != nil {
				if !errors.Is(err, errShortPayload) && !errors.Is(err, errTrailing) && !errors.Is(err, errFrameTooBig) && !errors.Is(err, errUnknownMsg) {
					t.Fatalf("%s at byte %d: %v", msgName(typ), at, err)
				}
				continue
			}
			var e enc
			put(typ, &m, &e)
			if err := get(typ, e.b, &m2); err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("%s at byte %d: decoded %+v, re-encoded and decoded %+v (%v)", msgName(typ), at, m, m2, err)
			}
			if len(payload) > 0 && get(typ, payload[:len(payload)-1], &m2) == nil {
				t.Fatalf("%s at byte %d: a payload one byte short decoded", msgName(typ), at)
			}
			if get(typ, append(bytes.Clone(payload), 0), &m2) == nil {
				t.Fatalf("%s at byte %d: a payload one byte long decoded", msgName(typ), at)
			}
		}
	})
}
