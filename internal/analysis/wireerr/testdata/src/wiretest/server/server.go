// Package server mirrors the wire codec idioms of internal/server for
// the wireerr golden tests.
package server

import (
	"errors"
	"fmt"

	"splitfs/internal/vfs"
)

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) { e.u32(uint32(v)); e.u32(uint32(v >> 32)) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

type dec struct {
	b   []byte
	err error
}

func (d *dec) take(n int) []byte {
	if len(d.b) < n {
		d.err = errors.New("short")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}
func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}
func (d *dec) u64() uint64 { lo := d.u32(); return uint64(lo) | uint64(d.u32())<<32 }
func (d *dec) i64() int64  { return int64(d.u64()) }
func (d *dec) str() string { n := int(d.u32()); return string(d.take(n)) }

// stat is a composite codec pair whose halves agree: u64 i64 u8 u32,
// with an if/else on the encode side that collapses.
func (e *enc) stat(ino uint64, size int64, dir bool, nlink uint32) {
	e.u64(ino)
	e.i64(size)
	if dir {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(nlink)
}

func (d *dec) stat() (uint64, int64, bool, uint32) {
	ino := d.u64()
	size := d.i64()
	dir := d.u8() == 1
	nlink := d.u32()
	return ino, size, dir, nlink
}

// encodeEntry / decodeEntry disagree: decode reads the name before the
// inode number.
func encodeEntry(name string, ino uint64) []byte {
	var e enc
	e.u64(ino)
	e.str(name)
	return e.b
}

func decodeEntry(p []byte) (string, uint64) { // want `wire field order mismatch for "Entry": encode writes \[u64 str\], decode reads \[str u64\]`
	d := dec{b: p}
	name := d.str()
	ino := d.u64()
	return name, ino
}

// encodeList / decodeList use symmetric loops and agree.
func encodeList(names []string) []byte {
	var e enc
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
	}
	return e.b
}

func decodeList(p []byte) []string {
	d := dec{b: p}
	n := int(d.u32())
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.str())
	}
	return out
}

// Errors returned across the wire must wrap a sentinel.

func badOpaque(path string) error {
	return fmt.Errorf("server: open %s failed", path) // want `returned fmt.Errorf error does not wrap with %w`
}

func badNew() error {
	return errors.New("server: handshake failed") // want `returned errors.New error cannot round-trip the wire`
}

// A sentinel formatted with %v, as the ctl socket's unknown session once
// could be (DESIGN.md "Static analysis", mutant W3): no tier-1 test
// matches that error with errors.Is.
func badVerbOverSentinel(id uint64) ([]byte, error) {
	return nil, fmt.Errorf("server: ctl: session %d: %v", id, vfs.ErrNotExist) // want `returned fmt.Errorf error does not wrap with %w`
}

// A decoded reply error formatted with %v, as a resumed handle's reopen
// failure once could be (mutant W5): the code it came back with is lost.
func badVerbOverReply(id uint64, reply error) error {
	return fmt.Errorf("server: reopen handle %d: %v", id, reply) // want `returned fmt.Errorf error does not wrap with %w`
}

func okWrapped(path string) error {
	return fmt.Errorf("server: open %s: %w", path, vfs.ErrNotExist)
}

func okSentinel() error {
	return vfs.ErrClosed
}

func okSuppressed() error {
	//lint:ignore splitfs-wireerr golden test exercises suppression
	return errors.New("server: deliberate opaque error")
}
