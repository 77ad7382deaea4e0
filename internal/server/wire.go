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
	_ // retired: Tread, now a Tpread at the client's offset
	_ // retired: Rread
	_ // retired: Twrite, now a Tpwrite at the client's offset or at offEOF
	_ // retired: Rwrite
	tPread
	rPread
	tPwrite
	rPwrite
	_ // retired: Tseek, now the client's own
	_ // retired: Rseek
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

// offEOF is the offset a Tpwrite carries for an O_APPEND handle's write:
// at the end of file. The session runs it as the backend handle's own
// Write, which reads the end under the backend's write lock, so appends
// through distinct handles never overwrite each other. Every Rpwrite
// carries the offset its write ended at.
const offEOF int64 = -1

var msgNames = map[uint8]string{
	tAttach: "Tattach", rAttach: "Rattach", tDetach: "Tdetach", rDetach: "Rdetach",
	tOpen: "Topen", rOpen: "Ropen", tClose: "Tclose", rClose: "Rclose",
	tPread: "Tpread", rPread: "Rpread", tPwrite: "Tpwrite", rPwrite: "Rpwrite",
	tTruncate: "Ttruncate", rTruncate: "Rtruncate",
	tFsync: "Tfsync", rFsync: "Rfsync", tFstat: "Tfstat", rFstat: "Rfstat",
	tStat: "Tstat", rStat: "Rstat", tReadDir: "Treaddir", rReadDir: "Rreaddir",
	tMkdir: "Tmkdir", rMkdir: "Rmkdir", tUnlink: "Tunlink", rUnlink: "Runlink",
	tRmdir: "Trmdir", rRmdir: "Rrmdir", tRename: "Trename", rRename: "Rrename",
	tSyncAll: "Tsyncall", rSyncAll: "Rsyncall", rError: "Rerror",
	tReopen: "Treopen", rReopen: "Rreopen",
	tLease: "Tlease", rLease: "Rlease", tRevoke: "Trevoke",
	tRevokeAck: "Trevokeack", rRevokeAck: "Rrevokeack",
}

func msgName(t uint8) string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msg(%d)", t)
}

// msg is every field any message carries: a request decodes into one, a
// reply renders from one, and each message type reads and writes only
// the fields its row of layouts names (after 9P's Fcall). off is
// Tpread's and Tpwrite's offset (offEOF for an append), size Ttruncate's
// size or the file size a lease was granted at, end where a write
// ended; path2 is Trename's destination, name the backend's, text an
// Rerror's message. A decoded data field aliases its payload.
type msg struct {
	handle, seg, epoch, token, session uint64
	off, size, end                     int64
	count, flag, perm, code            uint32
	path, path2, name, text            string
	resumable                          bool
	chain                              []string
	data                               []byte
	info                               vfs.FileInfo
	entries                            []vfs.DirEntry
	extents                            []vfs.Extent
}

// field is one msg field's place in a payload; its kind fixes its
// encoding.
type field uint8

const (
	fHandle    field = iota // u64
	fOff                    // i64
	fCount                  // u32
	fFlag                   // u32
	fPerm                   // u32
	fPath                   // str
	fPath2                  // str
	fChain                  // u16 count, then a str each
	fData                   // u32 length, then the bytes
	fInfo                   // u64 ino, i64 size, i64 blocks, u8 directory, u32 links
	fEntries                // u32 count, then str name, u64 ino, u8 directory each
	fSeg                    // u64
	fEpoch                  // u64
	fSize                   // i64
	fExtents                // u32 count, then i64 file offset, i64 device offset, i64 length each
	fResumable              // u8, 1 for true
	fToken                  // u64
	fSession                // u64
	fName                   // str
	fEnd                    // i64
	fCode                   // u32
	fText                   // str
)

// layouts is the wire format: each message type's fields in payload
// order. A message with no fields has an empty row; a nil row is no
// message. Every field is required: client and server ship together,
// so there is one revision of the protocol and no peer of another.
var layouts = [256][]field{
	tAttach: {fPath, fResumable, fToken}, rAttach: {fName, fSession, fToken},
	tDetach: {}, rDetach: {},
	tOpen: {fFlag, fPerm, fPath}, rOpen: {fHandle},
	tClose: {fHandle}, rClose: {},
	tPread: {fHandle, fOff, fCount}, rPread: {fData},
	tPwrite: {fHandle, fOff, fData}, rPwrite: {fCount, fEnd},
	tTruncate: {fHandle, fSize}, rTruncate: {},
	tFsync: {fHandle}, rFsync: {},
	tFstat: {fHandle}, rFstat: {fInfo},
	tStat: {fPath}, rStat: {fInfo},
	tReadDir: {fPath}, rReadDir: {fEntries},
	tMkdir: {fPerm, fPath}, rMkdir: {},
	tUnlink: {fPath}, rUnlink: {},
	tRmdir: {fPath}, rRmdir: {},
	tRename: {fPath, fPath2}, rRename: {},
	tSyncAll: {}, rSyncAll: {},
	rError:  {fCode, fText},
	tReopen: {fHandle, fFlag, fPerm, fChain}, rReopen: {},
	tLease: {fHandle}, rLease: {fSeg, fEpoch, fSize, fExtents},
	tRevoke:    {fSeg},
	tRevokeAck: {fSeg}, rRevokeAck: {},
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

// partialFrame reports whether b, at least a length header long, starts
// a frame whose body has not all arrived. A length out of bounds is not
// partial: readFrame refuses it at once.
func partialFrame(b []byte) bool {
	n := binary.LittleEndian.Uint32(b)
	return n >= 5 && n <= maxFrame-4 && len(b) < 4+int(n)
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

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

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

var zeros [8]byte

// fixed takes a field of n <= 8 bytes: zeros once the decoder is
// poisoned.
func (d *dec) fixed(n int) []byte {
	if p := d.take(n); p != nil {
		return p
	}
	return zeros[:n]
}

func (d *dec) u8() uint8   { return d.fixed(1)[0] }
func (d *dec) u16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *dec) u32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *dec) u64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }
func (d *dec) i64() int64  { return int64(d.u64()) }
func (d *dec) str() string { return string(d.take(int(d.u16()))) }

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if n > maxPayload {
		d.err = errFrameTooBig
		return nil
	}
	return d.take(n)
}

var (
	errTrailing   = errors.New("server: bytes after the last field")
	errUnknownMsg = errors.New("server: unknown message")
)

// put appends m's fields in typ's layout to e.
func put(typ uint8, m *msg, e *enc) {
	for _, f := range layouts[typ] {
		switch f {
		case fHandle:
			e.u64(m.handle)
		case fOff:
			e.i64(m.off)
		case fCount:
			e.u32(m.count)
		case fFlag:
			e.u32(m.flag)
		case fPerm:
			e.u32(m.perm)
		case fPath:
			e.str(m.path)
		case fPath2:
			e.str(m.path2)
		case fChain:
			e.u16(uint16(len(m.chain)))
			for _, p := range m.chain {
				e.str(p)
			}
		case fData:
			e.bytes(m.data)
		case fInfo:
			e.u64(m.info.Ino)
			e.i64(m.info.Size)
			e.i64(m.info.Blocks)
			e.bool(m.info.IsDir)
			e.u32(m.info.Nlink)
		case fEntries:
			e.u32(uint32(len(m.entries)))
			for _, de := range m.entries {
				e.str(de.Name)
				e.u64(de.Ino)
				e.bool(de.IsDir)
			}
		case fSeg:
			e.u64(m.seg)
		case fEpoch:
			e.u64(m.epoch)
		case fSize:
			e.i64(m.size)
		case fExtents:
			e.u32(uint32(len(m.extents)))
			for _, x := range m.extents {
				e.i64(x.FileOff)
				e.i64(x.DevOff)
				e.i64(x.Length)
			}
		case fResumable:
			e.bool(m.resumable)
		case fToken:
			e.u64(m.token)
		case fSession:
			e.u64(m.session)
		case fName:
			e.str(m.name)
		case fEnd:
			e.i64(m.end)
		case fCode:
			e.u32(m.code)
		case fText:
			e.str(m.text)
		}
	}
}

// get decodes p, a typ payload, into m, whose every other field it
// zeroes. A payload shorter than its layout, or with bytes after its
// last field, is refused. A count from the wire sizes a list only as
// far as the bytes left could fill it.
func get(typ uint8, p []byte, m *msg) error {
	row := layouts[typ]
	if row == nil {
		return errUnknownMsg
	}
	*m = msg{}
	d := dec{b: p}
	for _, f := range row {
		switch f {
		case fHandle:
			m.handle = d.u64()
		case fOff:
			m.off = d.i64()
		case fCount:
			m.count = d.u32()
		case fFlag:
			m.flag = d.u32()
		case fPerm:
			m.perm = d.u32()
		case fPath:
			m.path = d.str()
		case fPath2:
			m.path2 = d.str()
		case fChain:
			n := int(d.u16())
			m.chain = make([]string, 0, min(n, len(d.b)/2))
			for i := 0; i < n && d.err == nil; i++ {
				m.chain = append(m.chain, d.str())
			}
		case fData:
			m.data = d.bytes()
		case fInfo:
			m.info = vfs.FileInfo{Ino: d.u64(), Size: d.i64(), Blocks: d.i64(), IsDir: d.u8() == 1, Nlink: d.u32()}
		case fEntries:
			n := int(d.u32())
			m.entries = make([]vfs.DirEntry, 0, min(n, len(d.b)/11))
			for i := 0; i < n && d.err == nil; i++ {
				m.entries = append(m.entries, vfs.DirEntry{Name: d.str(), Ino: d.u64(), IsDir: d.u8() == 1})
			}
		case fSeg:
			m.seg = d.u64()
		case fEpoch:
			m.epoch = d.u64()
		case fSize:
			m.size = d.i64()
		case fExtents:
			n := int(d.u32())
			m.extents = make([]vfs.Extent, 0, min(n, len(d.b)/24))
			for i := 0; i < n && d.err == nil; i++ {
				m.extents = append(m.extents, vfs.Extent{FileOff: d.i64(), DevOff: d.i64(), Length: d.i64()})
			}
		case fResumable:
			m.resumable = d.u8() == 1
		case fToken:
			m.token = d.u64()
		case fSession:
			m.session = d.u64()
		case fName:
			m.name = d.str()
		case fEnd:
			m.end = d.i64()
		case fCode:
			m.code = d.u32()
		case fText:
			m.text = d.str()
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	return d.err
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

// errCodes pairs each code but codeGeneric with the error it carries,
// in the order errToCode tries them: io.EOF first.
var errCodes = []struct {
	code uint16
	err  error
}{
	{codeEOF, io.EOF},
	{codeNotExist, vfs.ErrNotExist},
	{codeExist, vfs.ErrExist},
	{codeIsDir, vfs.ErrIsDir},
	{codeNotDir, vfs.ErrNotDir},
	{codeNotEmpty, vfs.ErrNotEmpty},
	{codeNoSpace, vfs.ErrNoSpace},
	{codeBadFD, vfs.ErrBadFD},
	{codeInval, vfs.ErrInval},
	{codeReadOnly, vfs.ErrReadOnly},
	{codeClosed, vfs.ErrClosed},
}

func errToCode(err error) uint16 {
	for _, c := range errCodes {
		if errors.Is(err, c.err) {
			return c.code
		}
	}
	return codeGeneric
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
	for _, c := range errCodes {
		if c.code == e.Code {
			return c.err
		}
	}
	return nil
}

// encodeError renders err as an Rerror payload.
func encodeError(reqID uint32, err error) (uint8, uint32, []byte) {
	text := err.Error()
	e := enc{b: make([]byte, 0, 32+len(text))}
	put(rError, &msg{code: uint32(errToCode(err)), text: text}, &e)
	return rError, reqID, e.b
}

// decodeError reconstructs the client-side error for an Rerror payload.
// A bare EOF code comes back as io.EOF itself: callers throughout the
// repository compare with == (the io convention), not just errors.Is.
func decodeError(payload []byte) error {
	var m msg
	if err := get(rError, payload, &m); err != nil {
		return fmt.Errorf("server: malformed Rerror: %w", err)
	}
	code := uint16(m.code)
	if code == codeEOF {
		return io.EOF
	}
	return &RemoteError{Code: code, Msg: m.text}
}
