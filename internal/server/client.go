package server

import (
	"bufio"
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

var wireCalls = sync.Pool{New: func() any { return new(wireCall) }}

// newCall takes a request scratch from the pool.
func newCall() *wireCall { return wireCalls.Get().(*wireCall) }

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

// ClientConfig configures a session. The zero value is a whole-tree
// root with no leases.
type ClientConfig struct {
	// Root confines the session to a server subtree ("" or "/" = the
	// whole tree).
	Root string

	// EnableLeases turns the zero-copy data plane on: the client asks
	// for a lease on a handle's first eligible read or write. On a
	// resumable session leases are read-only, since leased writes bypass
	// the replay log.
	EnableLeases bool
}

func (cfg *ClientConfig) fill() {
	if cfg.Root == "" {
		cfg.Root = "/"
	}
}

// Client is a connected session implementing vfs.FileSystem, so every
// workload in the repository runs unmodified through the service.
type Client struct {
	mu sync.Mutex   // one exchange at a time
	x  exchange     // guarded by mu
	rs *resumeState // resumable sessions only; guarded by mu

	fsName      string
	leaseReads  bool // EnableLeases
	leaseWrites bool // EnableLeases on a session that is not resumable
	stats       clientStats
}

// clientStats counts the client-side data plane.
type clientStats struct {
	leaseGrants      atomic.Int64
	leaseRevocations atomic.Int64 // Trevoke pushes observed
	leaseFallbacks   atomic.Int64 // leased attempts retired to the copy path
	leasedReadBytes  atomic.Int64
	leasedWriteBytes atomic.Int64
	wireReadBytes    atomic.Int64 // data payload bytes over Rpread
	wireWriteBytes   atomic.Int64 // data payload bytes over Tpwrite
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

// File is a served file handle. Like every backend's File it embeds the
// handle core, which keeps its path, open flags, closed state and offset
// here, on the client, as U-Split keeps them in the library (§3.5), and
// supplies the core's positional I/O: Read and Write reach the server as
// a Tpread or Tpwrite at the offset, as 9P and lisafs carry it, and an
// O_APPEND write as a Tpwrite at offEOF, which the backend appends under
// its own write lock. A SeekEnd asks the server for the size (Tfstat).
// When the session has leases on, the proxy additionally holds the
// handle's lease state (see lease.go and leasedReadAt below).
//
// A closed File answers vfs.ErrClosed itself and sends nothing, as the
// direct backends' handles do; the server's ErrBadFD is for ids it never
// issued.
type File struct {
	vfs.Handle[*File]
	c      *Client
	handle uint64

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

// call sends req as a typ request and returns its decoded reply.
func (c *Client) call(typ uint8, req *msg) (msg, error) {
	w := newCall()
	defer releaseCall(w)
	return c.callIn(w, typ, req)
}

// do is call for a request whose reply carries nothing.
func (c *Client) do(typ uint8, req *msg) error {
	_, err := c.call(typ, req)
	return err
}

// callIn is call in the caller's scratch w: it encodes the request,
// exchanges it for its reply, acknowledges the revocations pushed
// meanwhile, unwraps an Rerror, and checks and decodes the reply. A
// reply's data is valid until the caller releases w.
func (c *Client) callIn(w *wireCall, typ uint8, req *msg) (rep msg, err error) {
	w.b, w.err = w.b[:0], nil
	if put(typ, req, &w.enc); w.err != nil {
		return rep, w.err
	}
	c.mu.Lock()
	rtyp, rp, err := c.send(typ, w)
	c.ackRevokes()
	c.mu.Unlock()
	switch {
	case err != nil:
	case rtyp == rError:
		err = decodeError(rp)
	case rtyp != typ+1: // every T* reply type is the next constant
		err = fmt.Errorf("%w: %s reply to %s", errUnexpectedReply, msgName(rtyp), msgName(typ))
	default:
		err = get(rtyp, rp, &rep)
	}
	return rep, err
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
		x.ack.b = x.ack.b[:0]
		put(tRevokeAck, &msg{seg: x.revoked[i]}, &x.ack)
		if _, _, err := x.roundTrip(tRevokeAck, x.next(), x.ack.b, &x.abuf); err != nil {
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
	r, err := c.call(tOpen, &msg{flag: uint32(flag), perm: perm, path: path})
	if err != nil {
		return nil, err
	}
	f := &File{c: c, handle: r.handle}
	f.Open(f, path, flag)
	return f, nil
}

// Mkdir implements vfs.FileSystem.
func (c *Client) Mkdir(path string, perm uint32) error {
	return c.do(tMkdir, &msg{perm: perm, path: path})
}

// Unlink implements vfs.FileSystem.
func (c *Client) Unlink(path string) error { return c.do(tUnlink, &msg{path: path}) }

// Rmdir implements vfs.FileSystem.
func (c *Client) Rmdir(path string) error { return c.do(tRmdir, &msg{path: path}) }

// Rename implements vfs.FileSystem.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.do(tRename, &msg{path: oldPath, path2: newPath})
}

// Stat implements vfs.FileSystem.
func (c *Client) Stat(path string) (vfs.FileInfo, error) {
	r, err := c.call(tStat, &msg{path: path})
	return r.info, err
}

// ReadDir implements vfs.FileSystem.
func (c *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	r, err := c.call(tReadDir, &msg{path: path})
	return r.entries, err
}

// SyncAll asks the server for a group sync: the backend's own SyncAll
// when it has one (splitfs's group-committed multi-file drain), else a
// per-handle sync of this session's open files in path order.
func (c *Client) SyncAll() error { return c.do(tSyncAll, &msg{}) }

// Close detaches the session (the server closes any handles left open)
// and hangs up.
func (c *Client) Close() error {
	derr := c.do(tDetach, &msg{})
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

// ReadAt is positional (pread). With a lease it is satisfied
// by loads straight through the mapped extents — zero wire data bytes —
// falling back to the copy path when the mapping is stale, revoked, or
// does not cover the range.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.Closed() {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	if n, ok := f.leasedReadAt(p, off); ok {
		return n, nil
	}
	return f.readLoop(p, off)
}

// readLoop chunks a read through bounded frames. EOF after at least one
// byte reads as a short read (the io contract every backend here
// follows).
func (f *File) readLoop(p []byte, off int64) (int, error) {
	w := newCall()
	defer releaseCall(w)
	total := 0
	for total < len(p) {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		r, err := f.c.callIn(w, tPread, &msg{handle: f.handle, off: off + int64(total), count: uint32(n)})
		if err != nil {
			if err == io.EOF && total > 0 {
				return total, nil
			}
			if errors.Is(err, errConnLost) {
				return total, &ShortIOError{Op: "read", Path: f.Path(), Acked: total, InFlight: n, Err: err}
			}
			return total, err
		}
		copy(p[total:], r.data)
		total += len(r.data)
		f.c.stats.wireReadBytes.Add(int64(len(r.data)))
		if len(r.data) < n {
			break // the backend clamped at EOF
		}
	}
	return total, nil
}

// WriteAt is positional (pwrite).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := f.WriteEnd(p, off, false)
	return n, err
}

// WriteEnd implements vfs.Positional: a write at off or, when atEOF, at
// the end of file as the backend finds it under its write lock. With a
// writable lease the bytes are stored through the mapped file directly
// (the paper's staged append through the process mapping); otherwise
// they take the chunked wire codec.
func (f *File) WriteEnd(p []byte, off int64, atEOF bool) (int, int64, error) {
	if f.Closed() {
		return 0, off, vfs.ErrClosed
	}
	if off < 0 {
		return 0, off, vfs.ErrInval
	}
	if n, end, err, ok := f.leasedWrite(p, off, atEOF); ok {
		return n, end, err
	}
	return f.writeLoop(p, off, atEOF)
}

func (f *File) writeLoop(p []byte, off int64, atEOF bool) (int, int64, error) {
	w := newCall()
	defer releaseCall(w)
	total, end := 0, off
	for {
		n := len(p) - total
		if n > chunkBytes {
			n = chunkBytes
		}
		at := off + int64(total)
		if atEOF {
			at = offEOF
		}
		r, err := f.c.callIn(w, tPwrite, &msg{handle: f.handle, off: at, data: p[total : total+n]})
		if err != nil {
			if errors.Is(err, errConnLost) {
				err = &ShortIOError{Op: "write", Path: f.Path(), Acked: total, InFlight: n, Err: err}
			}
			return total, end, err
		}
		got := int(r.count)
		total, end = total+got, r.end
		f.c.stats.wireWriteBytes.Add(int64(got))
		if got < n || total >= len(p) {
			return total, end, nil
		}
	}
}

// Size implements vfs.Positional: the size a SeekEnd seeks from, from
// the server's fstat of the handle.
func (f *File) Size() (int64, error) {
	fi, err := f.Stat()
	return fi.Size, err
}

// ---------------------------------------------------------------------
// Client side of the zero-copy data plane. The File proxy holds at most
// one lease; it is granted lazily on the first eligible data operation
// and dropped on any validation failure, after which one re-grant is
// attempted before the operation retires to the copy path.

// leasedReadAt tries to satisfy a positional read through the handle's
// lease. ok=false means the caller must take the wire.
func (f *File) leasedReadAt(p []byte, off int64) (int, bool) {
	if !f.c.leaseReads || f.CheckReadable() != nil || len(p) == 0 {
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

// leasedWrite tries to store p through the leased mapping, at off or,
// when atEOF, at the end of file: the leased file is the server-side
// handle, so it writes as the session would (writeEnd). ok=false means
// the caller must take the wire. Disabled on resumable sessions: a
// leased write bypasses the replay log.
func (f *File) leasedWrite(p []byte, off int64, atEOF bool) (n int, end int64, err error, ok bool) {
	if !f.c.leaseWrites || f.CheckWritable() != nil || len(p) == 0 {
		return 0, off, nil, false
	}
	f.leaseMu.Lock()
	defer f.leaseMu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		L := f.lease
		if L == nil {
			if L = f.grantLease(); L == nil {
				return 0, off, nil, false
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
		n, end, err = writeEnd(seg.file, p, off, atEOF)
		seg.mu.RUnlock()
		f.c.stats.leasedWriteBytes.Add(int64(n))
		return n, end, err, true
	}
	f.c.stats.leaseFallbacks.Add(1)
	return 0, off, nil, false
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
	r, err := f.c.call(tLease, &msg{handle: f.handle})
	if err != nil {
		f.leaseBroken = true
		return nil
	}
	seg, issued := lookupSegment(r.seg)
	if seg == nil {
		// Revoked already: this operation takes the wire, the next one
		// asks again. An out-of-process peer cannot map the segment
		// namespace at all.
		f.leaseBroken = !issued
		return nil
	}
	f.c.stats.leaseGrants.Add(1)
	return &clientLease{seg: seg, epoch: r.epoch, size: r.size, extents: r.extents}
}

// dropLease forgets the client-side lease state (Close: the server
// revokes the segment itself on Tclose).
func (f *File) dropLease() {
	f.leaseMu.Lock()
	f.lease = nil
	f.leaseMu.Unlock()
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	if f.Closed() {
		return vfs.ErrClosed
	}
	return f.c.do(tTruncate, &msg{handle: f.handle, size: size})
}

// Sync implements vfs.File (fsync through the service).
func (f *File) Sync() error {
	if f.Closed() {
		return vfs.ErrClosed
	}
	return f.c.do(tFsync, &msg{handle: f.handle})
}

// Close implements vfs.File. The server revokes any lease on the
// handle as part of Tclose; the client just forgets its view.
func (f *File) Close() error {
	if err := f.MarkClosed(); err != nil {
		return err
	}
	f.dropLease()
	return f.c.do(tClose, &msg{handle: f.handle})
}

// Stat implements vfs.File (fstat on the server-side handle, so it
// works on orphaned — unlinked-while-open — files too).
func (f *File) Stat() (vfs.FileInfo, error) {
	if f.Closed() {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	r, err := f.c.call(tFstat, &msg{handle: f.handle})
	return r.info, err
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
	ack    enc    // acknowledgement requests are rendered here
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
			var m msg
			if get(tRevoke, rp, &m) == nil {
				x.revoked = append(x.revoked, m.seg)
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

// DialConfig attaches a session over a connected stream.
func DialConfig(rwc io.ReadWriteCloser, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	br := bufio.NewReaderSize(rwc, 64<<10)
	name, _, err := attachExchange(rwc, br, 0, cfg.Root, false)
	if err != nil {
		return nil, err
	}
	return &Client{x: exchange{rwc: rwc, br: br}, fsName: name, leaseReads: cfg.EnableLeases, leaseWrites: cfg.EnableLeases}, nil
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
// connection: a Tattach carrying root, the resumable flag and, for a
// resumable session, the token of the session it resumes (0 for none).
// It returns what the Rattach carries: the backend's name and the
// session's resume token — token itself when the server adopted that
// session, a new one when it attached a fresh session. Transport
// failures wrap errConnLost; a refusal
// comes back as the server's decoded error. The connection is closed on
// any failure.
func attachExchange(rwc io.ReadWriteCloser, br *bufio.Reader, token uint64, root string, resumable bool) (name string, newToken uint64, err error) {
	defer func() {
		if err != nil {
			rwc.Close()
		}
	}()
	var e enc
	put(tAttach, &msg{path: root, resumable: resumable, token: token}, &e)
	if e.err != nil {
		return "", 0, e.err
	}
	if err := writeFrame(rwc, nil, tAttach, 0, e.b); err != nil {
		return "", 0, fmt.Errorf("%w: Tattach: %w", errConnLost, err)
	}
	rtyp, _, rp, err := readFrame(br, nil)
	if err != nil {
		return "", 0, fmt.Errorf("%w: Tattach reply: %w", errConnLost, err)
	}
	if rtyp == rError {
		return "", 0, decodeError(rp)
	}
	if rtyp != rAttach {
		return "", 0, fmt.Errorf("%w: %s reply to Tattach", errUnexpectedReply, msgName(rtyp))
	}
	var m msg
	err = get(rAttach, rp, &m)
	return m.name, m.token, err
}

// DialNetConfig connects to a network address and attaches with cfg.
func DialNetConfig(network, addr string, cfg ClientConfig) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return DialConfig(c, cfg)
}
