// Package server is the multi-tenant file service: a lisafs-inspired
// session/RPC layer (after gvisor's gofer protocol) that multiplexes N
// client sessions onto any vfs.FileSystem. It has three layers:
//
//   - a wire layer: a compact little-endian message codec with bounded
//     payload framing and request IDs, which pair each reply with its
//     request and key a resumable session's reply cache. The client
//     speaks it in one synchronous exchange — a request frame out, then
//     frames in until its reply — over three kinds of connection: a unix
//     socket (cmd/splitfsd), net.Pipe (tests), and the in-process
//     Server.Pipe, where every request executes on the caller's
//     goroutine, so the crash harness and the differential suite stay
//     bit-identical to direct calls;
//   - a session layer: per-session root confinement (client paths are
//     resolved lexically against the session's subtree, so ".." cannot
//     escape), a vfs.FDTable whose descriptors are the wire handle IDs,
//     execution of each request on the goroutine that read it, under
//     the session's executor lock — one session's requests run FIFO in
//     arrival order, distinct sessions run concurrently — and idempotent
//     teardown that closes every handle when a client disconnects
//     mid-operation;
//   - a client library (Client, File) implementing vfs.FileSystem, so
//     every workload in the repository runs unmodified through the
//     service against any backend.
//
// This is the serving seam the paper's user-space design implies (§3:
// one U-Split service interposing for many application processes); the
// reproduction's equivalent of gvisor's gofer/lisafs split.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"splitfs/internal/vfs"
)

// Message types. Requests and their replies pair as T*/R*; Rerror may
// answer any request.
const (
	tAttach uint8 = iota + 1
	rAttach
	tDetach
	rDetach
	tOpen
	rOpen
	tClose
	rClose
	tRead
	rRead
	tWrite
	rWrite
	tPread
	rPread
	tPwrite
	rPwrite
	tSeek
	rSeek
	tTruncate
	rTruncate
	tFsync
	rFsync
	tFstat
	rFstat
	tStat
	rStat
	tReadDir
	rReadDir
	tMkdir
	rMkdir
	tUnlink
	rUnlink
	tRmdir
	rRmdir
	tRename
	rRename
	tSyncAll
	rSyncAll
	rError
	_ // retired: Treattach, now Tattach's trailing resume token
	_ // retired: Rreattach
	tReopen
	rReopen
	// Zero-copy data plane (PR 9). Tlease asks for a lease on an open
	// handle's extent mappings; Trevoke is the only server-initiated
	// message in the protocol — it is pushed with request id 0 (client
	// ids start at 1) when the server must invalidate a lease, and the
	// client acknowledges with Trevokeack. The ordering here matters:
	// Session.execute derives each reply type as typ+1.
	tLease
	rLease
	tRevoke
	tRevokeAck
	rRevokeAck
)

// flagReplay marks a request the client is re-sending after a transport
// loss: the original may or may not have executed. The session masks
// the flag off before decoding and (a) answers from the session's reply
// cache when the request already executed — the exactly-once path — or
// (b) executes it fresh under the replay heal rules (see Session.handle:
// a replayed rename/unlink whose source is already gone succeeded the
// first time). Request type constants stay below the flag bit.
const flagReplay uint8 = 0x80

var msgNames = map[uint8]string{
	tAttach: "Tattach", rAttach: "Rattach", tDetach: "Tdetach", rDetach: "Rdetach",
	tOpen: "Topen", rOpen: "Ropen", tClose: "Tclose", rClose: "Rclose",
	tRead: "Tread", rRead: "Rread", tWrite: "Twrite", rWrite: "Rwrite",
	tPread: "Tpread", rPread: "Rpread", tPwrite: "Tpwrite", rPwrite: "Rpwrite",
	tSeek: "Tseek", rSeek: "Rseek", tTruncate: "Ttruncate", rTruncate: "Rtruncate",
	tFsync: "Tfsync", rFsync: "Rfsync", tFstat: "Tfstat", rFstat: "Rfstat",
	tStat: "Tstat", rStat: "Rstat", tReadDir: "Treaddir", rReadDir: "Rreaddir",
	tMkdir: "Tmkdir", rMkdir: "Rmkdir", tUnlink: "Tunlink", rUnlink: "Runlink",
	tRmdir: "Trmdir", rRmdir: "Rrmdir", tRename: "Trename", rRename: "Rrename",
	tSyncAll: "Tsyncall", rSyncAll: "Rsyncall", rError: "Rerror",
	tReopen: "Treopen", rReopen: "Rreopen",
	tLease: "Tlease", rLease: "Rlease", tRevoke: "Trevoke",
	tRevokeAck: "Trevokeack", rRevokeAck: "Rrevokeack",
}

// Feature bits negotiated at attach time. Tattach carries the client's
// requested set as a trailing u32 (absent on old clients: the codec
// tolerates missing trailing fields, decoding them as zero); Rattach
// echoes the agreed set the same way. Either side missing the field
// settles on the empty set — today's chunked copy path.
const featLeases uint32 = 1 << 0

func msgName(t uint8) string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msg(%d)", t)
}

// Framing bounds. A frame on the wire is
//
//	[u32 body length][u8 type][u32 request id][payload ...]
//
// with the length covering type+id+payload. maxPayload bounds what a
// single data-carrying request may ship; the client chunks larger reads
// and writes (see chunkBytes). maxFrame adds headroom for the non-data
// fields so a maximal chunk still fits.
const (
	frameHeader = 4 + 1 + 4 // length + type + request id
	maxPayload  = 1 << 20
	maxFrame    = maxPayload + 256
	chunkBytes  = 256 << 10
)

// errFrameTooBig reports an oversized frame, which is a protocol error:
// the connection is unrecoverable after it (framing is lost).
var errFrameTooBig = errors.New("server: frame exceeds payload bound")

// errServerClosed is returned for any operation on a closed server;
// callers match it with errors.Is rather than string comparison.
var errServerClosed = errors.New("server: closed")

// errUnexpectedReply reports a reply frame whose type does not match the
// outstanding request — a protocol violation, not a backend error.
var errUnexpectedReply = errors.New("server: unexpected reply type")

// errBadHandshake reports a connection whose first frame was not
// Tattach.
var errBadHandshake = errors.New("server: bad handshake")

// errTornFrame reports a stream that died in the middle of a frame — a
// torn disconnect, as opposed to a clean peer close at a frame boundary
// (io.EOF). Teardown classifies the two differently (WireStats), and the
// resumable client treats both as transport loss. Always wrapped, so
// errors.Is holds through the connection-lost chain.
var errTornFrame = errors.New("server: connection torn mid-frame")

// errConnLost marks a lost connection: the request whose exchange failed
// and every later one on the client unwrap to this sentinel (and the
// first, below it, to the root cause — errTornFrame for a mid-frame
// tear). The resumable client keys its reconnect-and-replay path on it.
var errConnLost = errors.New("server: connection lost")

// writeFrame writes one frame to w, in a single Write, assembled in
// *buf: scratch its owner reuses frame after frame, so framing allocates
// nothing once the buffer has grown. A nil buf assembles the frame in a
// fresh buffer. Callers serialize access to w and buf.
func writeFrame(w io.Writer, buf *[]byte, typ uint8, reqID uint32, payload []byte) error {
	if len(payload) > maxFrame-frameHeader {
		return fmt.Errorf("%w (%s, %d bytes)", errFrameTooBig, msgName(typ), len(payload))
	}
	var b []byte
	if buf != nil {
		b = (*buf)[:0]
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(1+4+len(payload)))
	b = append(b, typ)
	b = binary.LittleEndian.AppendUint32(b, reqID)
	b = append(b, payload...)
	if buf != nil {
		*buf = b
	}
	_, err := w.Write(b)
	return err
}

// readFrame reads one frame from r. The frame lands in *buf, grown as
// needed, and the payload returned is a slice of it: valid until the
// owner reads the next frame into the same buffer. A nil buf reads into
// a fresh one. A stream that ends cleanly between frames returns io.EOF
// untouched; one that dies inside a frame — a partial length header or a
// truncated body — comes back wrapped in errTornFrame, so teardown can
// tell a polite close from a torn mid-frame disconnect.
func readFrame(r io.Reader, buf *[]byte) (typ uint8, reqID uint32, payload []byte, err error) {
	var b []byte
	if buf != nil {
		b = *buf
	}
	if cap(b) < 4 {
		b = make([]byte, 4, frameHeader)
	}
	if _, err = io.ReadFull(r, b[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, 0, nil, fmt.Errorf("%w: %w in frame header", errTornFrame, err)
		}
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n < 5 || n > maxFrame-4 {
		return 0, 0, nil, fmt.Errorf("%w (%d bytes)", errFrameTooBig, n)
	}
	if cap(b) < int(n) {
		b = make([]byte, n)
	}
	if buf != nil {
		*buf = b[:0]
	}
	body := b[:n]
	got, err := io.ReadFull(r, body)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, 0, nil, fmt.Errorf("%w: %d of %d body bytes: %w", errTornFrame, got, n, err)
		}
		return 0, 0, nil, err
	}
	return body[0], binary.LittleEndian.Uint32(body[1:5]), body[5:], nil
}

// enc is an append-style payload encoder. A field that cannot be
// represented (an over-long string) poisons the encoder; senders check
// err before the payload goes anywhere, so a path that does not fit is
// an explicit error, never a silently reinterpreted prefix.
type enc struct {
	b   []byte
	err error
}

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) str(s string) {
	if len(s) > 0xffff {
		if e.err == nil {
			e.err = fmt.Errorf("server: string field of %d bytes exceeds the wire bound", len(s))
		}
		s = ""
	}
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// bytesFrom appends the field bytes would for what fill reads into a
// buffer of n bytes, reading straight into the payload. On an error
// nothing is appended.
func (e *enc) bytesFrom(n int, fill func([]byte) (int, error)) error {
	start := len(e.b)
	e.b = slices.Grow(e.b, 4+n)[:start+4+n]
	got, err := fill(e.b[start+4:])
	if err != nil {
		e.b = e.b[:start]
		return err
	}
	binary.LittleEndian.PutUint32(e.b[start:], uint32(got))
	e.b = e.b[:start+4+got]
	return nil
}

// dec is the matching decoder; the first short read poisons it, and the
// caller checks dec.err once after decoding every field.
type dec struct {
	b   []byte
	err error
}

var errShortPayload = errors.New("server: truncated payload")

func (d *dec) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		if d.err == nil {
			d.err = errShortPayload
		}
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

func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if n > maxPayload {
		d.err = errFrameTooBig
		return nil
	}
	return d.take(n)
}

// FileInfo encoding shared by Rstat/Rfstat.
func (e *enc) fileInfo(fi vfs.FileInfo) {
	e.u64(fi.Ino)
	e.i64(fi.Size)
	e.i64(fi.Blocks)
	if fi.IsDir {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(fi.Nlink)
}

func (d *dec) fileInfo() vfs.FileInfo {
	fi := vfs.FileInfo{Ino: d.u64(), Size: d.i64(), Blocks: d.i64()}
	fi.IsDir = d.u8() == 1
	fi.Nlink = d.u32()
	return fi
}

// ---------------------------------------------------------------------
// Error transport. The shared vfs error set (plus io.EOF) round-trips
// as numeric codes so errors.Is keeps working across the wire; anything
// else degrades to a generic code carrying the message text.

const (
	codeGeneric uint16 = iota
	codeNotExist
	codeExist
	codeIsDir
	codeNotDir
	codeNotEmpty
	codeNoSpace
	codeBadFD
	codeInval
	codeReadOnly
	codeClosed
	codeEOF
)

var codeToErr = map[uint16]error{
	codeNotExist: vfs.ErrNotExist,
	codeExist:    vfs.ErrExist,
	codeIsDir:    vfs.ErrIsDir,
	codeNotDir:   vfs.ErrNotDir,
	codeNotEmpty: vfs.ErrNotEmpty,
	codeNoSpace:  vfs.ErrNoSpace,
	codeBadFD:    vfs.ErrBadFD,
	codeInval:    vfs.ErrInval,
	codeReadOnly: vfs.ErrReadOnly,
	codeClosed:   vfs.ErrClosed,
	codeEOF:      io.EOF,
}

func errToCode(err error) uint16 {
	switch {
	case errors.Is(err, io.EOF):
		return codeEOF
	case errors.Is(err, vfs.ErrNotExist):
		return codeNotExist
	case errors.Is(err, vfs.ErrExist):
		return codeExist
	case errors.Is(err, vfs.ErrIsDir):
		return codeIsDir
	case errors.Is(err, vfs.ErrNotDir):
		return codeNotDir
	case errors.Is(err, vfs.ErrNotEmpty):
		return codeNotEmpty
	case errors.Is(err, vfs.ErrNoSpace):
		return codeNoSpace
	case errors.Is(err, vfs.ErrBadFD):
		return codeBadFD
	case errors.Is(err, vfs.ErrInval):
		return codeInval
	case errors.Is(err, vfs.ErrReadOnly):
		return codeReadOnly
	case errors.Is(err, vfs.ErrClosed):
		return codeClosed
	default:
		return codeGeneric
	}
}

// RemoteError is a server-side failure delivered over the wire. It
// unwraps to the shared vfs sentinel (or io.EOF) the server matched, so
// client-side errors.Is behaves exactly as it would against a direct
// backend, while Error() preserves the server's full message.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

func (e *RemoteError) Unwrap() error {
	if err, ok := codeToErr[e.Code]; ok {
		return err
	}
	return nil
}

// encodeError renders err as an Rerror payload.
func encodeError(reqID uint32, err error) (uint8, uint32, []byte) {
	var e enc
	e.b = make([]byte, 0, 32+len(err.Error()))
	e.u32(uint32(errToCode(err)))
	e.str(err.Error())
	return rError, reqID, e.b
}

// decodeError reconstructs the client-side error for an Rerror payload.
// A bare EOF code comes back as io.EOF itself: callers throughout the
// repository compare with == (the io convention), not just errors.Is.
func decodeError(payload []byte) error {
	d := dec{b: payload}
	code := uint16(d.u32())
	msg := d.str()
	if d.err != nil {
		return fmt.Errorf("server: malformed Rerror: %w", d.err)
	}
	if code == codeEOF {
		return io.EOF
	}
	return &RemoteError{Code: code, Msg: msg}
}
