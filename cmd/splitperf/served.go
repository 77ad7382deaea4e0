package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	rootfs "splitfs"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

// served-mix: two tenant sessions on real unix sockets against one
// in-process server over splitfs-strict, leases on. The only workload
// where codec, transport, dispatch and leases work, and the only
// concurrent one.

const (
	servedSessions = 2
	dataBlocks     = 16 << 20 / blk // leased, read-only apart from the 1 % truncates
	wrBlocks       = 4 << 20 / blk  // pwrite target
	logRecord      = 1024
)

type servedMix struct {
	st    *rootfs.Stack
	srv   *server.Server
	tr    *tracer
	conns sync.WaitGroup // ServeConn goroutines
	sess  [servedSessions]*session
}

// session is one tenant: a client goroutine's generator, open files and
// last-writer tables.
type session struct {
	c    client
	cli  *server.Client
	fs   vfs.FileSystem // cli, or its traced decorator
	pool pool
	rng  *sim.RNG
	mix  *deck
	base uint64 // id space of this session
	buf  []byte

	data, wr, log vfs.File
	wrLast        []uint64 // per /wr block: id of its last writer
	pwrites       uint64
	appends       uint64
	scratch       int // which of /r0, /r1 exists
}

// socketpair returns two connected unix stream sockets.
func socketpair() (net.Conn, net.Conn, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, err
	}
	// FileConn dups the descriptor, so the files close either way.
	f0, f1 := os.NewFile(uintptr(fds[0]), "splitperf-client"), os.NewFile(uintptr(fds[1]), "splitperf-server")
	defer f0.Close()
	defer f1.Close()
	c0, err := net.FileConn(f0)
	if err != nil {
		return nil, nil, err
	}
	c1, err := net.FileConn(f1)
	if err != nil {
		c0.Close()
		return nil, nil, err
	}
	return c0, c1, nil
}

func newServedMix(cfg config, steps, warm int64) (w *servedMix, err error) {
	st, err := rootfs.NewStack(rootfs.StackConfig{DeviceBytes: 384 << 20, Mode: splitfs.Strict})
	if err != nil {
		return nil, err
	}
	w = &servedMix{st: st}
	var backend vfs.FileSystem = st.FS
	var back [servedSessions]*sink
	if cfg.trace {
		w.tr = newTracer() // no clk: two sessions share the simulated clock
		for i := range back {
			back[i] = w.tr.sink("backend", i, tracedCalls(steps), false)
		}
		backend = &tracedFS{inner: st.FS, sinkFor: func(path string) *sink {
			if strings.HasPrefix(path, "/t1") {
				return back[1]
			}
			return back[0]
		}}
	}
	w.srv = server.New(backend, server.Config{})
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for i := range w.sess {
		root := fmt.Sprintf("/t%d", i)
		if err := st.FS.Mkdir(root, 0o755); err != nil {
			return nil, err
		}
		cs, ss, err := socketpair()
		if err != nil {
			return nil, err
		}
		w.conns.Add(1)
		go func() {
			defer w.conns.Done()
			// The error only says how the connection ended; the client
			// side reports every failed call itself.
			_ = w.srv.ServeConn(ss)
		}()
		cli, err := server.DialConfig(cs, server.ClientConfig{Root: root, EnableLeases: true})
		if err != nil {
			return nil, err
		}
		s := &session{cli: cli, fs: cli, pool: newPool(cfg.seed), base: idSession * uint64(i+1),
			rng: sim.NewRNG(cfg.seed + uint64(i)*0x9e3779b97f4a7c15), buf: make([]byte, blk),
			// pread, pwrite, append, stat, open+close, rename, truncate
			mix: newDeck(40, 20, 20, 10, 5, 4, 1), wrLast: make([]uint64, wrBlocks)}
		w.sess[i] = s
		s.c.steps = steps
		s.c.step = s.step
		s.c.initSampling((steps+warm)/2, specs[cfg.workload].every)
		if cfg.trace {
			front := w.tr.sink("client", i, tracedCalls(steps), false)
			s.fs = &tracedFS{inner: cli, sinkFor: func(string) *sink { return front }}
			s.c.sinks = []*sink{front, back[i]}
		}
		if err := s.preload(); err != nil {
			return nil, err
		}
	}
	// Warm both sessions concurrently, as the timed phase runs them.
	errs := make(chan error, servedSessions)
	for _, s := range w.sess {
		go func() { errs <- s.c.warm(warm) }()
	}
	for range w.sess {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return w, err
}

func (s *session) preload() (err error) {
	open := func(name string, flag int) vfs.File {
		if err != nil {
			return nil
		}
		var f vfs.File
		f, err = s.fs.OpenFile(name, flag, 0o644)
		return f
	}
	s.data = open("/data", vfs.O_CREATE|vfs.O_RDWR)
	s.wr = open("/wr", vfs.O_CREATE|vfs.O_RDWR)
	s.log = open("/log", vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND)
	r0 := open("/r0", vfs.O_CREATE|vfs.O_WRONLY)
	if err != nil {
		return err
	}
	if err := preload(s.data, s.pool, s.base+idPreload, blk, dataBlocks); err != nil {
		return err
	}
	if err := preload(s.wr, s.pool, s.base+2*idPreload, blk, wrBlocks); err != nil {
		return err
	}
	for i := range s.wrLast {
		s.wrLast[i] = s.base + 2*idPreload + uint64(i)
	}
	if err := preload(r0, s.pool, s.base+3*idPreload, logRecord, 1); err != nil {
		return err
	}
	return r0.Close()
}

var scratchNames = [2]string{"/r0", "/r1"}

func (s *session) step() {
	c := &s.c
	r := s.rng.Uint64()
	switch s.mix.draw(s.rng) {
	case 0: // leased 4 KB pread
		b := int64(r >> 32 % dataBlocks)
		c.note(opRead, b, 0)
		t0 := time.Now()
		n, err := s.data.ReadAt(s.buf, b*blk)
		c.observe(t0)
		c.checkIO(n, blk, err)
	case 1: // 4 KB pwrite, fsync every 8th
		b := int64(r >> 32 % wrBlocks)
		id := s.base + s.pwrites
		c.note(opWrite, b, int64(s.pwrites))
		n, err := s.wr.WriteAt(s.pool.at(id, blk), b*blk)
		c.checkIO(n, blk, err)
		c.wbytes += blk
		s.wrLast[b] = id
		if s.pwrites++; s.pwrites%8 == 0 {
			c.note(opFsync, 1, 0)
			c.check(s.wr.Sync())
		}
	case 2: // 1 KB append, fsync every 8th
		c.note(opWrite, -1, int64(s.appends))
		n, err := s.log.Write(s.pool.at(s.base+4*idPreload+s.appends, logRecord))
		c.checkIO(n, logRecord, err)
		c.wbytes += logRecord
		if s.appends++; s.appends%8 == 0 {
			c.note(opFsync, 2, 0)
			c.check(s.log.Sync())
		}
	case 3:
		c.note(opStat, 0, 0)
		fi, err := s.fs.Stat("/data")
		if err == nil && fi.Size != dataBlocks*blk {
			err = fmt.Errorf("stat /data: size %d", fi.Size)
		}
		c.check(err)
	case 4:
		c.note(opOpen, int64(s.scratch), 0)
		f, err := s.fs.OpenFile(scratchNames[s.scratch], vfs.O_RDONLY, 0)
		c.check(err)
		if err == nil {
			c.note(opClose, int64(s.scratch), 0)
			c.check(f.Close())
		}
	case 5:
		c.note(opRename, int64(s.scratch), 0)
		c.check(s.fs.Rename(scratchNames[s.scratch], scratchNames[1-s.scratch]))
		s.scratch = 1 - s.scratch
	default: // truncate the leased file to its own size: revoke, re-lease
		c.note(opTruncate, 0, 0)
		c.check(s.data.Truncate(dataBlocks * blk))
	}
}

func (s *session) verify() error {
	names := []string{"data", "wr", "log", scratchNames[s.scratch][1:]}
	if err := checkNames(s.cli, "/", names); err != nil {
		return err
	}
	if err := checkSize(s.data, dataBlocks*blk); err != nil {
		return err
	}
	if err := checkBlocks(s.data, s.pool, blk, dataBlocks, func(i int) uint64 { return s.base + idPreload + uint64(i) }); err != nil {
		return err
	}
	if err := checkBlocks(s.wr, s.pool, blk, wrBlocks, func(i int) uint64 { return s.wrLast[i] }); err != nil {
		return err
	}
	log, err := vfs.Open(s.cli, "/log")
	if err != nil {
		return err
	}
	defer log.Close()
	if err := checkSize(log, int64(s.appends)*logRecord); err != nil {
		return err
	}
	if err := checkBlocks(log, s.pool, logRecord, int(s.appends), func(i int) uint64 { return s.base + 4*idPreload + uint64(i) }); err != nil {
		return err
	}
	r, err := vfs.Open(s.cli, scratchNames[s.scratch])
	if err != nil {
		return err
	}
	defer r.Close()
	return checkBlocks(r, s.pool, logRecord, 1, func(int) uint64 { return s.base + 3*idPreload })
}

func (w *servedMix) clients() []*client {
	cs := make([]*client, len(w.sess))
	for i, s := range w.sess {
		cs[i] = &s.c
	}
	return cs
}

func (w *servedMix) layers() layers {
	l := layers{dev: w.st.Device, clk: w.st.Clock, kfs: w.st.KFS, ufs: w.st.FS, tr: w.tr}
	for _, s := range w.sess {
		l.clients = append(l.clients, s.cli)
	}
	return l
}

func (w *servedMix) verify() error {
	for i, s := range w.sess {
		if err := s.verify(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	return nil
}

// close detaches the sessions, stops the server and waits for every
// goroutine the workload started.
func (w *servedMix) close() error {
	var first error
	for _, s := range w.sess {
		if s == nil {
			continue
		}
		if err := s.cli.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := w.srv.Close(); err != nil && first == nil {
		first = err
	}
	w.conns.Wait()
	if err := w.st.FS.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
