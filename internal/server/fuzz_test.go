package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"splitfs/internal/vfs"
)

// frameFixtures are wire_test.go's fixtures as byte streams: a frame with a
// payload, one carrying every codec field, two frames back to back, a
// length header past the bound, and a frame cut short.
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
	e.fileInfo(vfs.FileInfo{Ino: 9, Size: -1, Blocks: 3, IsDir: true, Nlink: 2})
	hello := frame(tOpen, 42, []byte("hello wire"))
	return [][]byte{
		hello,
		frame(tPwrite, 1, e.b),
		append(bytes.Clone(hello), frame(tStat, 43, nil)...),
		{0xff, 0xff, 0xff, 0xff},
		hello[:len(hello)-3],
	}
}

// FuzzFrame: whatever bytes arrive on a connection, readFrame and the
// payload decoders return or poison — they never panic, never hand out
// more than the stream held, and never hold a buffer past the frame bound.
// A frame that does parse is the frame writeFrame would have written, and
// a stream ends in exactly one of three ways: cleanly between frames, torn
// inside one, or with a length no frame may have.
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
			// Every decoder over the payload, the frame type choosing which
			// goes first, until the bytes run out or one poisons.
			d := dec{b: payload}
			for step := int(typ); d.err == nil && len(d.b) > 0; step++ {
				left := len(d.b)
				got := 0
				switch step % 8 {
				case 0:
					d.u8()
				case 1:
					d.u16()
				case 2:
					d.u32()
				case 3:
					d.u64()
				case 4:
					d.i64()
				case 5:
					got = len(d.str())
				case 6:
					got = len(d.bytes())
				case 7:
					d.fileInfo()
				}
				if got > left || len(d.b) > left || (d.err == nil && len(d.b) == left) {
					t.Fatalf("decoder %d: %d bytes out of %d, %d left", step%8, got, left, len(d.b))
				}
			}
		}
	})
}
