package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// errInjectedFault marks I/O failed by a FaultConn, so tests can tell
// an injected fault from an organic one.
var errInjectedFault = errors.New("server: injected wire fault")

// ErrInjectedFault exposes the injection sentinel for tests outside the
// package (the crash campaigns classify it with errors.Is).
var ErrInjectedFault = errInjectedFault

// FaultConn wraps a stream connection and injects the wire faults the
// served crash campaigns (and the unit tests) exercise:
//
//   - CutWriteAfter(n): pass n more written bytes through, then fail the
//     write and close the connection — a mid-frame disconnect when n
//     lands inside a frame, a partial header write when n is under
//     frameHeader, a clean frame-boundary cut when n is 0.
//   - DuplicateNextWrite: the next complete write is sent twice, in one
//     write — a duplicated reply frame the client must drop by request
//     ID.
//
// The duplicate hook treats each Write call as one frame, which holds
// for both peers here: writeFrame issues a single Write per frame and
// neither side buffers its write path.
type FaultConn struct {
	inner io.ReadWriteCloser

	mu          sync.Mutex
	writeBudget int64 // remaining write bytes before the cut; -1 = unlimited
	dupNext     bool
}

// NewFaultConn wraps inner with no faults armed.
func NewFaultConn(inner io.ReadWriteCloser) *FaultConn {
	return &FaultConn{inner: inner, writeBudget: -1}
}

// CutWriteAfter arms the write cut: n more bytes pass, then writes fail
// and the connection closes (tearing any frame the cut lands inside).
func (f *FaultConn) CutWriteAfter(n int) {
	f.mu.Lock()
	f.writeBudget = int64(n)
	f.mu.Unlock()
}

// DuplicateNextWrite arms one duplicated frame.
func (f *FaultConn) DuplicateNextWrite() {
	f.mu.Lock()
	f.dupNext = true
	f.mu.Unlock()
}

func (f *FaultConn) Read(p []byte) (int, error) { return f.inner.Read(p) }

func (f *FaultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeBudget >= 0 {
		if int64(len(p)) >= f.writeBudget {
			n := int(f.writeBudget)
			f.writeBudget = 0
			if n > 0 {
				f.inner.Write(p[:n])
			}
			f.inner.Close()
			return n, fmt.Errorf("%w: write cut after %d bytes", errInjectedFault, n)
		}
		f.writeBudget -= int64(len(p))
	}
	n := len(p)
	if f.dupNext {
		// Frame and copy go out in one write, back to back as on a
		// socket: a net.Pipe write blocks until it is read, and a client
		// reads only while it waits on a reply.
		f.dupNext = false
		p = append(p[:n:n], p...)
	}
	if _, err := f.inner.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}

func (f *FaultConn) Close() error { return f.inner.Close() }
