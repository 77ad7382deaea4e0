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

// transport is how a Client reaches a server: either the deterministic
// in-process loopback or a framed byte stream.
type transport interface {
	// call issues one request, w's encoded payload, and leaves the
	// matching reply frame in w (rtyp, reply).
	call(typ uint8, w *wireCall) error
	close() error
}

// wireCall is one request's scratch: the request payload is encoded into
// its enc, and the reply lands in frame, with reply the payload's slice
// of it. Calls come from a pool, so a call in steady state allocates
// nothing, and each caller's reply stays its own until it releases the
// call — a pipelined caller's frame never overwrites it. The pool is the
// package's: a call holds nothing of its client once released, and a
// pool inside Client would keep a closed client reachable from the
// runtime's pool list for two more collections.
type wireCall struct {
	enc
	rtyp  uint8
	reply []byte
	frame []byte
	// done hands the reply over from the stream transport's read loop;
	// ok reports whether one arrived (false: the transport failed).
	done chan struct{}
	ok   bool
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
	w.reply = nil
	wireCalls.Put(w)
}

// reset empties the request encoder for the next request on w.
func (w *wireCall) reset() {
	w.b, w.err = w.b[:0], nil
}

func newWireCall() any { return &wireCall{done: make(chan struct{}, 1)} }

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
	t           transport
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

// call checks the request encoder, sends w's request, unwraps Rerror
// replies, and checks the reply type. The payload returned is w's: valid
// until the caller releases w.
func (c *Client) call(typ uint8, want uint8, w *wireCall) ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if err := c.t.call(typ, w); err != nil {
		return nil, err
	}
	if w.rtyp == rError {
		return nil, decodeError(w.reply)
	}
	if w.rtyp != want {
		return nil, fmt.Errorf("%w: %s reply to %s", errUnexpectedReply, msgName(w.rtyp), msgName(typ))
	}
	return w.reply, nil
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
// and releases the transport.
func (c *Client) Close() error {
	w := newCall()
	_, derr := c.call(tDetach, rDetach, w)
	releaseCall(w)
	cerr := c.t.close()
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
// transport trouble — pins the handle to the copy path for its
// lifetime; a fresh open starts fresh. Caller holds f.leaseMu.
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
	seg := lookupSegment(segID)
	if seg == nil {
		// An out-of-process peer cannot map the segment namespace.
		f.leaseBroken = true
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

// revoked counts a Trevoke push and returns the segment it names. The
// shared revoked flag has already invalidated the segment, so per-File
// state is cleaned up lazily on the next validation failure.
func (c *Client) revoked(payload []byte) (segID uint64, ok bool) {
	d := dec{b: payload}
	segID = d.u64()
	if d.err != nil {
		return 0, false
	}
	c.stats.leaseRevocations.Add(1)
	return segID, true
}

// handleRevoke is the stream transport's Trevoke push handler: count it
// and acknowledge asynchronously, since the read loop that delivers it
// also delivers the acknowledgement's reply.
func (c *Client) handleRevoke(payload []byte) {
	segID, ok := c.revoked(payload)
	if !ok {
		return
	}
	go func() {
		e := newCall()
		defer releaseCall(e)
		e.u64(segID)
		_, _ = c.call(tRevokeAck, rRevokeAck, e)
	}()
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
// Stream transport: frames over any io.ReadWriteCloser (unix socket,
// net.Pipe), with request-ID multiplexing so callers may pipeline.

type streamTransport struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader

	writeMu sync.Mutex // serializes request frames

	// onPush handles server-initiated frames (Trevoke, request id 0).
	// Set before the demux loop starts; never called concurrently with
	// itself (the demux loop is the only caller).
	onPush func(payload []byte)

	// wbuf assembles request frames (under writeMu), rbuf holds the
	// frame the read loop last read (its goroutine only).
	wbuf, rbuf []byte

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]*wireCall
	dead    error
}

// DialConfig attaches a session over a connected stream. The attach
// handshake offers the configured feature set; the server echoes the
// agreed subset (an old server echoes nothing, which reads as zero —
// clean downgrade in both directions).
func DialConfig(rwc io.ReadWriteCloser, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	t := &streamTransport{
		rwc:     rwc,
		br:      bufio.NewReaderSize(rwc, 64<<10),
		pending: make(map[uint32]*wireCall),
	}
	// Attach synchronously before the demux loop starts. Plain sessions
	// never present the resume token.
	req := cfg.offered()
	name, _, agreed, err := attachExchange(rwc, t.br, 0, cfg.Root, false, req)
	if err != nil {
		return nil, err
	}
	c := &Client{t: t, fsName: name, features: agreed & req, leaseWrites: true}
	t.onPush = c.handleRevoke
	go t.readLoop()
	return c, nil
}

// attachExchange performs the first-frame exchange on a fresh
// connection: a Treattach by resume token when token is non-zero, else a
// Tattach carrying root, the resumable flag and the offered features. It
// returns what the reply carries: the backend's name, the new session's
// resume token (a Treattach reply has none) and the agreed feature word
// (an old server sends none, which reads as zero). Transport failures
// wrap errConnLost; a refusal comes back as the server's decoded error.
// The connection is closed on any failure.
func attachExchange(rwc io.ReadWriteCloser, br *bufio.Reader, token uint64, root string, resumable bool, req uint32) (name string, newToken uint64, feats uint32, err error) {
	var e enc
	typ, want := tAttach, rAttach
	if token != 0 {
		typ, want = tReattach, rReattach
		e.u64(token)
	} else {
		var flag uint8
		if resumable {
			flag = 1
		}
		e.str(root)
		e.u8(flag)
		e.u32(req)
	}
	defer func() {
		if err != nil {
			rwc.Close()
		}
	}()
	if e.err != nil {
		return "", 0, 0, e.err
	}
	if err := writeFrame(rwc, nil, typ, 0, e.b); err != nil {
		return "", 0, 0, fmt.Errorf("%w: %s: %w", errConnLost, msgName(typ), err)
	}
	rtyp, _, rp, err := readFrame(br, nil)
	if err != nil {
		return "", 0, 0, fmt.Errorf("%w: %s reply: %w", errConnLost, msgName(typ), err)
	}
	if rtyp == rError {
		return "", 0, 0, decodeError(rp)
	}
	if rtyp != want {
		return "", 0, 0, fmt.Errorf("%w: %s reply to %s", errUnexpectedReply, msgName(rtyp), msgName(typ))
	}
	d := dec{b: rp}
	name = d.str()
	if token == 0 {
		d.u64() // session id (diagnostic)
		newToken = d.u64()
	}
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

// readLoop demultiplexes replies to their waiting callers, copying each
// out of the loop's own frame buffer into the caller's call before the
// next frame overwrites it. Frames with request id 0 are
// server-initiated pushes (Trevoke), routed to onPush.
func (t *streamTransport) readLoop() {
	for {
		typ, reqID, payload, err := readFrame(t.br, &t.rbuf)
		if err != nil {
			t.fail(err)
			return
		}
		if typ == tRevoke {
			if t.onPush != nil {
				t.onPush(payload)
			}
			continue
		}
		t.mu.Lock()
		w, ok := t.pending[reqID]
		delete(t.pending, reqID)
		t.mu.Unlock()
		if ok {
			w.frame = append(w.frame[:0], payload...)
			w.rtyp, w.reply, w.ok = typ, w.frame, true
			w.done <- struct{}{}
		}
	}
}

// fail poisons the transport: every outstanding and future call errors
// with an errConnLost chain, so callers (and the File proxies above)
// can classify the loss with errors.Is.
func (t *streamTransport) fail(err error) {
	t.mu.Lock()
	if t.dead == nil {
		t.dead = fmt.Errorf("%w: %w", errConnLost, err)
	}
	pending := t.pending
	t.pending = make(map[uint32]*wireCall)
	t.mu.Unlock()
	for _, w := range pending {
		w.ok = false
		w.done <- struct{}{}
	}
}

// call sends w's request and waits for the read loop (or a failure) to
// hand its reply over. Exactly one hand-over answers each registration:
// whoever takes w out of pending — the read loop, fail, or call itself
// after a failed write — is the one that signals or skips it, so w.done
// is empty again when call returns and w can be reused.
func (t *streamTransport) call(typ uint8, w *wireCall) error {
	// ID assignment and the frame write happen under one critical
	// section (lock order writeMu then mu): if they were split, two
	// pipelined callers could assign IDs in one order and write frames
	// in the other, and the server — which executes a session FIFO in
	// arrival order — would run them in an order that contradicts the
	// IDs. Request IDs are the replay log's sequence numbers, so they
	// must agree with execution order.
	t.writeMu.Lock()
	t.mu.Lock()
	if t.dead != nil {
		err := t.dead
		t.mu.Unlock()
		t.writeMu.Unlock()
		return err
	}
	t.nextID++
	id := t.nextID
	t.pending[id] = w
	t.mu.Unlock()
	err := writeFrame(t.rwc, &t.wbuf, typ, id, w.b)
	t.writeMu.Unlock()
	if err != nil {
		// A partial frame is unrecoverable on a shared stream: poison the
		// transport (wrapping the cause) rather than hand back a raw error
		// that hides the connection's death from the next caller.
		t.mu.Lock()
		_, mine := t.pending[id]
		delete(t.pending, id)
		t.mu.Unlock()
		if !mine {
			<-w.done // the read loop or fail took it first, and signals it
		}
		t.fail(err)
		t.rwc.Close()
		t.mu.Lock()
		dead := t.dead
		t.mu.Unlock()
		return dead
	}
	<-w.done
	if !w.ok {
		t.mu.Lock()
		err := t.dead
		t.mu.Unlock()
		return err
	}
	return nil
}

func (t *streamTransport) close() error {
	err := t.rwc.Close()
	t.fail(io.ErrClosedPipe)
	return err
}

// ---------------------------------------------------------------------
// Loopback transport: the deterministic in-memory pair. Each call is
// encoded, framed, executed (Session.serve, as a stream's read loop
// does), and decoded inline on the caller's goroutine — no channels, no
// goroutines — so a single-session served stack issues the exact
// backend-operation sequence a direct caller would, and the crash
// harness's persistence-event streams stay bit-identical.

type loopbackTransport struct {
	s  *Session
	mu sync.Mutex // reqID + the one-frame "wire"
	id uint32
}

// NewLoopbackConfig attaches a deterministic in-process session with
// cfg. Negotiation runs the same intersection the wire handshake does.
func NewLoopbackConfig(srv *Server, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	s, err := srv.attach(cfg.Root, nil, false, cfg.offered())
	if err != nil {
		return nil, err
	}
	return &Client{
		t: &loopbackTransport{s: s}, fsName: srv.fs.Name(),
		features: s.features, leaseWrites: true,
	}, nil
}

func (t *loopbackTransport) call(typ uint8, w *wireCall) error {
	t.mu.Lock()
	t.id++
	id := t.id
	t.mu.Unlock()
	// Round-trip through the real framing so the codec path is identical
	// to the stream transport's.
	var buf loopbackBuf
	if err := writeFrame(&buf, nil, typ, id, w.b); err != nil {
		return err
	}
	rtyp, rid, rp, err := readFrame(&buf, nil)
	if err != nil {
		return err
	}
	rtyp, rp, ok := t.s.serve(nil, rtyp, rid, rp, &w.frame)
	if !ok {
		// A detached session (Client.Close, Server.Close) rejects further
		// calls, like the stream transport's dead-connection check —
		// operating on it would insert handles no teardown will ever close.
		return &RemoteError{Code: codeClosed, Msg: "server: session detached"}
	}
	buf = loopbackBuf{}
	if err := writeFrame(&buf, nil, rtyp, rid, rp); err != nil {
		return err
	}
	w.rtyp, _, w.reply, err = readFrame(&buf, &w.frame)
	return err
}

func (t *loopbackTransport) close() error {
	t.s.teardown()
	return nil
}

// loopbackBuf is a minimal in-memory byte pipe for one frame.
type loopbackBuf struct{ b []byte }

func (l *loopbackBuf) Write(p []byte) (int, error) {
	l.b = append(l.b, p...)
	return len(p), nil
}

func (l *loopbackBuf) Read(p []byte) (int, error) {
	if len(l.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.b)
	l.b = l.b[n:]
	return n, nil
}
