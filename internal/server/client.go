package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"splitfs/internal/vfs"
)

// wireCall is one request's scratch: the request payload is encoded into
// its enc, and a plain session's reply frame lands in frame. Calls come
// from a pool, so a call in steady state allocates nothing, and each
// caller's reply stays its own until it releases the call — the next
// caller's frame never overwrites it. The pool is the package's: a call
// holds nothing of its client once released, and a pool inside Client
// would keep a closed client reachable from the runtime's pool list for
// two more collections.
type wireCall struct {
	enc
	frame []byte
}

// maxPooledCall bounds the buffers a released call keeps: a chunked
// read or write grows them to a 256 KB chunk, which the pool should not
// hold on to.
const maxPooledCall = 64 << 10

var wireCalls = sync.Pool{New: newWireCall}

// newCall takes a request scratch from the pool, empty.
func newCall() *wireCall {
	w := wireCalls.Get().(*wireCall)
	w.reset()
	return w
}

// releaseCall returns a call to the pool; its reply must no longer be
// used.
func releaseCall(w *wireCall) {
	if cap(w.b) > maxPooledCall {
		w.b = nil
	}
	if cap(w.frame) > maxPooledCall {
		w.frame = nil
	}
	wireCalls.Put(w)
}

// reset empties the request encoder for the next request on w.
func (w *wireCall) reset() {
	w.b, w.err = w.b[:0], nil
}

func newWireCall() any { return new(wireCall) }

// ClientConfig configures a session. The zero value is a whole-tree
// root with no leases.
type ClientConfig struct {
	// Root confines the session to a server subtree ("" or "/" = the
	// whole tree).
	Root string

	// EnableLeases requests the zero-copy data plane in the attach
	// handshake. The session uses it only if the server agrees (feature
	// negotiation); on a resumable session leases are read-only, since
	// leased writes bypass the replay log.
	EnableLeases bool
}

func (cfg *ClientConfig) fill() {
	if cfg.Root == "" {
		cfg.Root = "/"
	}
}

// offered is the feature word the attach handshake offers for cfg.
func (cfg *ClientConfig) offered() uint32 {
	if cfg.EnableLeases {
		return featLeases
	}
	return 0
}

// Client is a connected session implementing vfs.FileSystem, so every
// workload in the repository runs unmodified through the service.
type Client struct {
	mu sync.Mutex   // one exchange at a time
	x  exchange     // guarded by mu
	rs *resumeState // resumable sessions only; guarded by mu

	fsName      string
	features    uint32 // agreed set from the attach handshake
	leaseWrites bool   // leased writes allowed (non-resumable sessions)
	stats       clientStats
}

// clientStats counts the client-side data plane.
type clientStats struct {
	leaseGrants      atomic.Int64
	leaseRevocations atomic.Int64 // Trevoke pushes observed
	leaseFallbacks   atomic.Int64 // leased attempts retired to the copy path
	leasedReadBytes  atomic.Int64
	leasedWriteBytes atomic.Int64
	wireReadBytes    atomic.Int64 // data payload bytes over Rread/Rpread
	wireWriteBytes   atomic.Int64 // data payload bytes over Twrite/Tpwrite
}

// ClientStats is a snapshot of the client's data-plane counters: how
// many bytes moved through leased mappings (zero-copy) versus through
// the chunked wire codec, and how the lease protocol behaved.
type ClientStats struct {
	LeaseGrants      int64
	LeaseRevocations int64
	LeaseFallbacks   int64
	LeasedReadBytes  int64
	LeasedWriteBytes int64
	WireReadBytes    int64
	WireWriteBytes   int64
}

// Stats snapshots the data-plane counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		LeaseGrants:      c.stats.leaseGrants.Load(),
		LeaseRevocations: c.stats.leaseRevocations.Load(),
		LeaseFallbacks:   c.stats.leaseFallbacks.Load(),
		LeasedReadBytes:  c.stats.leasedReadBytes.Load(),
		LeasedWriteBytes: c.stats.leasedWriteBytes.Load(),
		WireReadBytes:    c.stats.wireReadBytes.Load(),
		WireWriteBytes:   c.stats.wireWriteBytes.Load(),
	}
}

// leasesOn reports whether the negotiated session may use leases.
func (c *Client) leasesOn() bool { return c.features&featLeases != 0 }

// File is a served file handle. All state (offset included) lives
// server-side; File is a thin proxy, so semantics — O_APPEND writes,
// shared-offset dup behavior, EOF — are exactly the backend's own.
// When the session negotiated leases, the proxy additionally holds the
// handle's lease state (see lease.go and leasedReadAt below).
type File struct {
	c      *Client
	handle uint64
	path   string
	flag   int // open flags, for client-side readable/writable gating

	leaseMu     sync.Mutex
	lease       *clientLease
	leaseBroken bool // grant refused: this handle stays on the copy path
}

// clientLease is the client's view of a granted segment: the extent
// table and epoch it will validate every zero-copy operation against.
type clientLease struct {
	seg     *leaseSegment
	epoch   uint64
	size    int64
	extents []vfs.Extent
}

// ShortIOError reports a chunked read or write whose transport failed
// partway: Acked bytes completed (their replies arrived) before the
// chunk of InFlight bytes went unanswered. Without the counts a caller
// would read a mid-transfer disconnect as "nothing happened", when in
// fact the server may hold every acked byte — and may even have applied
// the in-flight chunk whose reply was lost. Unwrap exposes the
// transport error, so errors.Is against the underlying failure holds.
type ShortIOError struct {
	Op       string // "read" or "write"
	Path     string
	Acked    int // bytes confirmed by replies
	InFlight int // bytes of the chunk whose reply never arrived
	Err      error
}

func (e *ShortIOError) Error() string {
	return fmt.Sprintf("server: short %s on %s: %d bytes acked, %d in flight: %v",
		e.Op, e.Path, e.Acked, e.InFlight, e.Err)
}

func (e *ShortIOError) Unwrap() error { return e.Err }

// call checks the request encoder, exchanges w's request for its reply,
// acknowledges the revocations pushed meanwhile, unwraps Rerror replies,
// and checks the reply type. The payload returned is valid until the
// caller releases w.
func (c *Client) call(typ uint8, want uint8, w *wireCall) ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	c.mu.Lock()
	rtyp, rp, err := c.send(typ, w)
	c.ackRevokes()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if rtyp == rError {
		return nil, decodeError(rp)
	}
	if rtyp != want {
		return nil, fmt.Errorf("%w: %s reply to %s", errUnexpectedReply, msgName(rtyp), msgName(typ))
	}
	return rp, nil
}

// send carries w's request to its reply: one exchange on a plain
// session, the logged and replayed drive on a resumable one, whose log
// may keep the reply and so gets a buffer of its own. A Tdetach closes
// the session to everything after it. Caller holds c.mu.
func (c *Client) send(typ uint8, w *wireCall) (uint8, []byte, error) {
	if c.x.closed {
		return 0, nil, &RemoteError{Code: codeClosed, Msg: "server: session detached"}
	}
	c.x.closed = typ == tDetach
	if c.rs != nil {
		return c.rs.drive(typ, w.b)
	}
	return c.x.roundTrip(typ, c.x.next(), w.b, &w.frame)
}

// ackRevokes counts the revocations pushed during the last exchange and
// acknowledges each, after the reply and on the caller's goroutine, so a
// session's frames are one sequence run to run. The acknowledgement is
// advisory: the first failure ends the round, and a detached session
// sends none. Caller holds c.mu.
func (c *Client) ackRevokes() {
	x := &c.x
	// An acknowledgement's own exchange may meet another push: the loop
	// picks it up.
	for i := 0; i < len(x.revoked) && !x.closed; i++ {
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], x.revoked[i])
		if _, _, err := x.roundTrip(tRevokeAck, x.next(), p[:], &x.abuf); err != nil {
			break
		}
	}
	c.stats.leaseRevocations.Add(int64(len(x.revoked)))
	x.revoked = x.revoked[:0]
}

// Name identifies the stack: "served:" + the backend's own name.
func (c *Client) Name() string { return "served:" + c.fsName }

// OpenFile opens path (relative to the session root) on the server and
// returns a proxy handle.
func (c *Client) OpenFile(path string, flag int, perm uint32) (vfs.File, error) {
	e := newCall()
	defer releaseCall(e)
	e.u32(uint32(flag))
	e.u32(perm)
	e.str(path)
	rp, err := c.call(tOpen, rOpen, e)
	if err != nil {
		return nil, err
	}
	d := dec{b: rp}
	h := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	return &File{c: c, handle: h, path: path, flag: flag}, nil
}

func (c *Client) pathOp(typ, want uint8, path string) error {
	e := newCall()
	defer releaseCall(e)
	e.str(path)
	_, err := c.call(typ, want, e)
	return err
}

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(path string, perm uint32) error {
	e := newCall()
	defer releaseCall(e)
	e.u32(perm)
	e.str(path)
	_, err := c.call(tMkdir, rMkdir, e)
	return err
}

// Unlink implements vfs.FileSystem.
func (c *Client) Unlink(path string) error { return c.pathOp(tUnlink, rUnlink, path) }

// Rmdir implements vfs.FileSystem.
func (c *Client) Rmdir(path string) error { return c.pathOp(tRmdir, rRmdir, path) }

// Rename implements vfs.FileSystem.
func (c *Client) Rename(oldPath, newPath string) error {
	e := newCall()
	defer releaseCall(e)
	e.str(oldPath)
	e.str(newPath)
	_, err := c.call(tRename, rRename, e)
	return err
}

// Stat implements vfs.FileSystem.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	e := newCall()
	defer releaseCall(e)
	e.str(path)
	rp, err := c.call(tStat, rStat, e)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	d := dec{b: rp}
	fi := d.fileInfo()
	return fi, d.err
}

// ReadDir implements vfs.FileSystem.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	e := newCall()
	defer releaseCall(e)
	e.str(path)
	rp, err := c.call(tReadDir, rReadDir, e)
	if err != nil {
		return nil, err
	}
	d := dec{b: rp}
	n := int(d.u32())
	ents := make([]vfs.DirEntry, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		de := vfs.DirEntry{Name: d.str(), Ino: d.u64()}
		de.IsDir = d.u8() == 1
		ents = append(ents, de)
	}
	if d.err != nil {
		return nil, d.err
	}
	return ents, nil
}

// SyncAll asks the server for a group sync: the backend's own SyncAll
// when it has one (splitfs's group-committed multi-file drain), else a
// per-handle sync of this session's open files in path order.
func (c *Client) SyncAll() error {
	w := newCall()
	defer releaseCall(w)
	_, err := c.call(tSyncAll, rSyncAll, w)
	return err
}

// Close detaches the session (the server closes any handles left open)
// and hangs up.
func (c *Client) Close() error {
	w := newCall()
	_, derr := c.call(tDetach, rDetach, w)
	releaseCall(w)
	c.mu.Lock()
	cerr := c.x.drop()
	c.mu.Unlock()
	if derr != nil {
		return derr
	}
	return cerr
}

// ---------------------------------------------------------------------
// File proxy.

// Path implements vfs.File.
func (f *File) Path() string { return f.path }

func (f *File) handleOp(typ, want uint8) error {
	e := newCall()
	defer releaseCall(e)
	e.u64(f.handle)
	_, err := f.c.call(typ, want, e)
	return err
}

// Read reads at the server-side handle offset. The offset lives on the
// server, so this always takes the wire; leased reads are positional.
func (f *File) Read(p []byte) (int, error) { return f.readLoop(tRead, rRead, p, -1) }

// ReadAt is positional (pread). With a negotiated lease it is satisfied
// by loads straight through the mapped extents — zero wire data bytes —
// falling back to the copy path when the mapping is stale, revoked, or
// does not cover the range.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if n, ok := f.leasedReadAt(p, off); ok {
		return n, nil
	}
	return f.readLoop(tPread, rPread, p, off)
}

// readLoop chunks a read through bounded frames. off < 0 selects the
// handle-offset variant; EOF after at least one byte reads as a short
// read (the io contract every backend here follows).
func (f *File) readLoop(typ, want uint8, p []byte, off int64) (int, error) {
	e := newCall()
	defer releaseCall(e)
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		e.reset()
		e.u64(f.handle)
		if off >= 0 {
			e.i64(off + int64(total))
		}
		e.u32(uint32(n))
		rp, err := f.c.call(typ, want, e)
		if err != nil {
			if err == io.EOF && total > 0 {
				return total, nil
			}
			if errors.Is(err, errConnLost) {
				return total, &ShortIOError{Op: "read", Path: f.path, Acked: total, InFlight: n, Err: err}
			}
			return total, err
		}
		d := dec{b: rp}
		data := d.bytes()
		if d.err != nil {
			return total, d.err
		}
		copy(p[total:], data)
		total += len(data)
		f.c.stats.wireReadBytes.Add(int64(len(data)))
		if len(data) < n {
			break // the backend clamped at EOF
		}
	}
	return total, nil
}

// Write writes at the server-side handle offset (EOF under O_APPEND).
// With a writable lease the bytes are stored through the mapped file
// directly (the paper's staged append through the process mapping);
// otherwise they take the chunked wire codec.
func (f *File) Write(p []byte) (int, error) {
	if n, err, ok := f.leasedWrite(p, -1); ok {
		return n, err
	}
	return f.writeLoop(tWrite, rWrite, p, -1)
}

// WriteAt is positional (pwrite).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if n, err, ok := f.leasedWrite(p, off); ok {
		return n, err
	}
	return f.writeLoop(tPwrite, rPwrite, p, off)
}

func (f *File) writeLoop(typ, want uint8, p []byte, off int64) (int, error) {
	e := newCall()
	defer releaseCall(e)
	total := 0
	for {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		e.reset()
		e.u64(f.handle)
		if off >= 0 {
			e.i64(off + int64(total))
		}
		e.bytes(p[total : total+n])
		rp, err := f.c.call(typ, want, e)
		if err != nil {
			if errors.Is(err, errConnLost) {
				return total, &ShortIOError{Op: "write", Path: f.path, Acked: total, InFlight: n, Err: err}
			}
			return total, err
		}
		d := dec{b: rp}
		got := int(d.u32())
		if d.err != nil {
			return total, d.err
		}
		total += got
		f.c.stats.wireWriteBytes.Add(int64(got))
		if got < n || total >= len(p) {
			return total, nil
		}
	}
}

// ---------------------------------------------------------------------
// Client side of the zero-copy data plane. The File proxy holds at most
// one lease; it is granted lazily on the first eligible data operation
// and dropped on any validation failure, after which one re-grant is
// attempted before the operation retires to the copy path.

// leasedReadAt tries to satisfy a positional read through the handle's
// lease. ok=false means the caller must take the wire.
func (f *File) leasedReadAt(p []byte, off int64) (int, bool) {
	if !f.c.leasesOn() || !vfs.Readable(f.flag) || len(p) == 0 {
		return 0, false
	}
	f.leaseMu.Lock()
	defer f.leaseMu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		L := f.lease
		if L == nil {
			if L = f.grantLease(); L == nil {
				return 0, false
			}
			f.lease = L
		}
		if n, ok := f.tryLeasedRead(L, p, off); ok {
			f.c.stats.leasedReadBytes.Add(int64(n))
			return n, true
		}
		// Stale epoch, revoked, or the mapping does not cover the range:
		// drop the lease and re-grant once against the current mapping.
		f.lease = nil
	}
	f.c.stats.leaseFallbacks.Add(1)
	return 0, false
}

// tryLeasedRead is the seqlock read: validate, load through the
// extents, validate again. If the epoch moved during the loads a
// remapping may have recycled the device bytes mid-read, so the data
// is discarded and the caller falls back.
func (f *File) tryLeasedRead(L *clientLease, p []byte, off int64) (int, bool) {
	end := off + int64(len(p))
	if end > L.size {
		// EOF or grown-past-grant: the wire path owns short reads.
		return 0, false
	}
	seg := L.seg
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if seg.revoked.Load() || seg.m.MapEpoch() != L.epoch {
		return 0, false
	}
	cur := off
	for _, x := range L.extents {
		if cur >= end {
			break
		}
		if x.FileOff > cur {
			return 0, false // hole in the mapping
		}
		if xe := x.FileOff + x.Length; xe > cur {
			span := end
			if xe < span {
				span = xe
			}
			seg.m.LoadMapped(p[cur-off:span-off], x.DevOff+(cur-x.FileOff))
			cur = span
		}
	}
	if cur < end {
		return 0, false
	}
	if seg.revoked.Load() || seg.m.MapEpoch() != L.epoch {
		return 0, false // remapped mid-read: bytes may be stale, discard
	}
	return len(p), true
}

// leasedWrite tries to store p through the leased mapping. off < 0 is
// the handle-offset variant (O_APPEND included — the leased file IS the
// server-side handle, so offset state is shared either way). ok=false
// means the caller must take the wire. Disabled on resumable sessions:
// a leased write bypasses the replay log.
func (f *File) leasedWrite(p []byte, off int64) (int, error, bool) {
	if !f.c.leaseWrites || !f.c.leasesOn() || !vfs.Writable(f.flag) || len(p) == 0 {
		return 0, nil, false
	}
	f.leaseMu.Lock()
	defer f.leaseMu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		L := f.lease
		if L == nil {
			if L = f.grantLease(); L == nil {
				return 0, nil, false
			}
			f.lease = L
		}
		seg := L.seg
		seg.mu.RLock()
		if seg.revoked.Load() {
			// Revoked since the grant: drop it and re-grant once against
			// the current mapping (writes don't validate the epoch — they
			// go through the backend file, which owns its own remapping).
			seg.mu.RUnlock()
			f.lease = nil
			continue
		}
		var n int
		var err error
		if off < 0 {
			n, err = seg.file.Write(p)
		} else {
			n, err = seg.file.WriteAt(p, off)
		}
		seg.mu.RUnlock()
		f.c.stats.leasedWriteBytes.Add(int64(n))
		return n, err, true
	}
	f.c.stats.leaseFallbacks.Add(1)
	return 0, nil, false
}

// grantLease round-trips Tlease for this handle and resolves the
// granted segment. Any refusal — non-mappable backend, directory,
// transport trouble, a segment from another process — pins the handle
// to the copy path for its lifetime; a fresh open starts fresh. Caller
// holds f.leaseMu.
func (f *File) grantLease() *clientLease {
	if f.leaseBroken {
		return nil
	}
	e := newCall()
	defer releaseCall(e)
	e.u64(f.handle)
	rp, err := f.c.call(tLease, rLease, e)
	if err != nil {
		f.leaseBroken = true
		return nil
	}
	d := dec{b: rp}
	segID := d.u64()
	epoch := d.u64()
	size := d.i64()
	n := int(d.u32())
	exts := make([]vfs.Extent, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		exts = append(exts, vfs.Extent{FileOff: d.i64(), DevOff: d.i64(), Length: d.i64()})
	}
	if d.err != nil {
		f.leaseBroken = true
		return nil
	}
	seg, issued := lookupSegment(segID)
	if seg == nil {
		// Revoked already: this operation takes the wire, the next one
		// asks again. An out-of-process peer cannot map the segment
		// namespace at all.
		f.leaseBroken = !issued
		return nil
	}
	f.c.stats.leaseGrants.Add(1)
	return &clientLease{seg: seg, epoch: epoch, size: size, extents: exts}
}

// dropLease forgets the client-side lease state (Close: the server
// revokes the segment itself on Tclose).
func (f *File) dropLease() {
	f.leaseMu.Lock()
	f.lease = nil
	f.leaseMu.Unlock()
}

// Seek implements vfs.File (the offset lives server-side).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	e := newCall()
	defer releaseCall(e)
	e.u64(f.handle)
	e.i64(offset)
	e.u8(uint8(whence))
	rp, err := f.c.call(tSeek, rSeek, e)
	if err != nil {
		return 0, err
	}
	d := dec{b: rp}
	pos := d.i64()
	return pos, d.err
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	e := newCall()
	defer releaseCall(e)
	e.u64(f.handle)
	e.i64(size)
	_, err := f.c.call(tTruncate, rTruncate, e)
	return err
}

// Sync implements vfs.File (fsync through the service).
func (f *File) Sync() error { return f.handleOp(tFsync, rFsync) }

// Close implements vfs.File. The server revokes any lease on the
// handle as part of Tclose; the client just forgets its view.
func (f *File) Close() error {
	f.dropLease()
	return f.handleOp(tClose, rClose)
}

// Stat implements vfs.File (fstat on the server-side handle, so it
// works on orphaned — unlinked-while-open — files too).
func (f *File) Stat() (vfs.FileInfo, error) {
	e := newCall()
	defer releaseCall(e)
	e.u64(f.handle)
	rp, err := f.c.call(tFstat, rFstat, e)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	d := dec{b: rp}
	fi := d.fileInfo()
	return fi, d.err
}

// ---------------------------------------------------------------------
// The exchange: the client's one transport. A request is one frame
// written, then frames read until the reply carrying its ID arrives — on
// a unix socket or net.Pipe (DialConfig), on the in-process Server.Pipe
// (NewLoopbackConfig), or on whichever connection a resumable session
// last dialled (DialResumableConfig). Client.mu serializes callers; the
// server runs a session's requests one at a time anyway.

// exchange is a client's connection and the framing state on it.
type exchange struct {
	rwc    io.ReadWriteCloser // nil once lost or hung up
	br     *bufio.Reader
	wbuf   []byte // request frames are assembled here
	abuf   []byte // acknowledgement replies land here, unread
	id     uint32 // the last request ID sent
	closed bool   // detached: no further request, nor acknowledgement

	// revoked holds the segments Trevoke pushes named since the last
	// acknowledgement round (Client.ackRevokes).
	revoked []uint64
}

// next returns a fresh request ID. IDs pair replies with requests, and
// a resumable session's are its replay log's sequence numbers.
func (x *exchange) next() uint32 {
	x.id++
	return x.id
}

// roundTrip writes one request frame and reads until the reply with its
// ID arrives, into *buf (a fresh buffer when buf is nil). Frames with
// another ID — duplicated or stale ones from a faulty transport — are
// dropped, so a misbehaving wire surfaces as an error or a clean retry,
// never as a misattributed reply. A transport failure drops the
// connection and wraps errConnLost, and so does every later request
// until a resumable session dials again.
func (x *exchange) roundTrip(typ uint8, id uint32, payload []byte, buf *[]byte) (uint8, []byte, error) {
	if x.rwc == nil {
		return 0, nil, fmt.Errorf("%w: no transport", errConnLost)
	}
	if err := writeFrame(x.rwc, &x.wbuf, typ, id, payload); err != nil {
		x.drop()
		return 0, nil, fmt.Errorf("%w: %w", errConnLost, err)
	}
	for {
		rtyp, rid, rp, err := readFrame(x.br, buf)
		if err != nil {
			x.drop()
			return 0, nil, fmt.Errorf("%w: %w", errConnLost, err)
		}
		if rtyp == tRevoke {
			// The server writes a session's pushes just ahead of a reply.
			// The shared revoked flag has already invalidated the segment,
			// so per-File state is cleaned up lazily on the next
			// validation failure; the push is counted and acknowledged.
			d := dec{b: rp}
			if segID := d.u64(); d.err == nil {
				x.revoked = append(x.revoked, segID)
			}
			continue
		}
		if rid == id {
			return rtyp, rp, nil
		}
	}
}

// drop hangs up the connection, if there still is one.
func (x *exchange) drop() error {
	if x.rwc == nil {
		return nil
	}
	err := x.rwc.Close()
	x.rwc, x.br = nil, nil
	return err
}

// DialConfig attaches a session over a connected stream. The attach
// handshake offers the configured feature set; the server echoes the
// agreed subset (an old server echoes nothing, which reads as zero —
// clean downgrade in both directions).
func DialConfig(rwc io.ReadWriteCloser, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	br := bufio.NewReaderSize(rwc, 64<<10)
	req := cfg.offered()
	name, _, agreed, err := attachExchange(rwc, br, 0, cfg.Root, false, req)
	if err != nil {
		return nil, err
	}
	return &Client{x: exchange{rwc: rwc, br: br}, fsName: name, features: agreed & req, leaseWrites: true}, nil
}

// NewLoopbackConfig attaches a session with cfg over a Server.Pipe:
// every request executes on the caller's goroutine, so a single-session
// served stack issues the exact backend-operation sequence a direct
// caller would, and the crash harness's persistence-event streams stay
// bit-identical.
func NewLoopbackConfig(srv *Server, cfg ClientConfig) (*Client, error) {
	rwc, err := srv.Pipe()
	if err != nil {
		return nil, err
	}
	return DialConfig(rwc, cfg)
}

// attachExchange performs the first-frame exchange on a fresh
// connection: a Tattach carrying root, the resumable flag, the offered
// features and, for a resumable session, the token of the session it
// resumes (0 for none). It returns what the Rattach carries: the
// backend's name, the session's resume token — token itself when the
// server adopted that session, a new one when it attached a fresh
// session — and the agreed feature word (an old server sends none,
// which reads as zero). Transport failures wrap errConnLost; a refusal
// comes back as the server's decoded error. The connection is closed on
// any failure.
func attachExchange(rwc io.ReadWriteCloser, br *bufio.Reader, token uint64, root string, resumable bool, req uint32) (name string, newToken uint64, feats uint32, err error) {
	defer func() {
		if err != nil {
			rwc.Close()
		}
	}()
	var flag uint8
	if resumable {
		flag = 1
	}
	var e enc
	e.str(root)
	e.u8(flag)
	e.u32(req)
	if token != 0 {
		e.u64(token)
	}
	if e.err != nil {
		return "", 0, 0, e.err
	}
	if err := writeFrame(rwc, nil, tAttach, 0, e.b); err != nil {
		return "", 0, 0, fmt.Errorf("%w: Tattach: %w", errConnLost, err)
	}
	rtyp, _, rp, err := readFrame(br, nil)
	if err != nil {
		return "", 0, 0, fmt.Errorf("%w: Tattach reply: %w", errConnLost, err)
	}
	if rtyp == rError {
		return "", 0, 0, decodeError(rp)
	}
	if rtyp != rAttach {
		return "", 0, 0, fmt.Errorf("%w: %s reply to Tattach", errUnexpectedReply, msgName(rtyp))
	}
	d := dec{b: rp}
	name = d.str()
	d.u64() // session id (diagnostic)
	newToken = d.u64()
	if d.err == nil && len(d.b) >= 4 {
		feats = d.u32()
	}
	return name, newToken, feats, d.err
}

// DialNetConfig connects to a network address and attaches with cfg.
func DialNetConfig(network, addr string, cfg ClientConfig) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return DialConfig(c, cfg)
}
