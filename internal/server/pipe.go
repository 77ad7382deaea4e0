package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Pipe opens an in-process stream connection to the server and returns
// its client end: the connection NewLoopbackConfig attaches over, and
// one DialResumableConfig's redial can return. A request frame executes
// the moment a Write completes it, on the writing goroutine, through the
// step ServeConn runs for every frame it reads, and its reply is queued
// before that Write returns, so Read never waits: with nothing queued it
// reports the end of the stream. The connection speaks the whole
// protocol — Tattach, resumable sessions, FaultConn cuts,
// FailReplies — for the client's synchronous exchange. One goroutine
// driving any number of them is a deterministic multi-session execution.
func (srv *Server) Pipe() (io.ReadWriteCloser, error) {
	p := &pipe{}
	conn, err := srv.openConn(pipeEnd{p})
	if err != nil {
		return nil, err
	}
	p.conn = conn
	return p, nil
}

// pipe is the client end of a Pipe; one goroutine at a time uses it.
type pipe struct {
	conn  *serverConn
	in    []byte // written bytes short of a whole frame
	rbuf  []byte // the frame being executed
	rd    bytes.Reader
	ended bool // the server has finished with the connection

	mu     sync.Mutex // guards out and closed against server-side writers
	out    []byte     // queued server frames
	closed bool       // either end hung up
}

// pipeEnd is the server's end of a pipe.
type pipeEnd struct{ p *pipe }

func (e pipeEnd) Write(b []byte) (int, error) {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	if e.p.closed {
		return 0, io.ErrClosedPipe
	}
	e.p.out = append(e.p.out, b...)
	return len(b), nil
}

func (e pipeEnd) Close() error {
	e.p.mu.Lock()
	e.p.closed = true
	e.p.mu.Unlock()
	return nil
}

func (p *pipe) hungUp() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Write hands b to the server and executes every frame it completes. A
// server that hangs up meanwhile (a dropped reply, a takeover) ends the
// connection, as a failed read ends ServeConn's loop.
func (p *pipe) Write(b []byte) (int, error) {
	if p.hungUp() {
		p.end(io.ErrClosedPipe)
		return 0, io.ErrClosedPipe
	}
	p.in = append(p.in, b...)
	for len(p.in) >= 4 && !p.ended {
		if n := binary.LittleEndian.Uint32(p.in); n >= 5 && n <= maxFrame-4 && len(p.in) < 4+int(n) {
			break // the rest of the frame is still to come
		}
		p.rd.Reset(p.in) // a length out of bounds fails readFrame at once
		typ, reqID, payload, err := readFrame(&p.rd, &p.rbuf)
		p.in = append(p.in[:0], p.in[len(p.in)-p.rd.Len():]...)
		if err == nil {
			err = p.conn.step(typ, reqID, payload)
		}
		if err == nil && p.hungUp() {
			err = io.ErrClosedPipe
		}
		if err != nil {
			p.end(err)
		}
	}
	return len(b), nil
}

// Close hangs up the client end: a clean close at a frame boundary, a
// torn one inside a frame.
func (p *pipe) Close() error {
	err := io.EOF
	if p.hungUp() {
		err = io.ErrClosedPipe
	} else if len(p.in) > 0 {
		err = fmt.Errorf("%w: %d bytes of a frame", errTornFrame, len(p.in))
	}
	pipeEnd{p}.Close()
	p.end(err)
	return nil
}

func (p *pipe) end(err error) {
	if !p.ended {
		p.ended = true
		p.conn.end(err)
	}
}

func (p *pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.out) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.out)
	p.out = append(p.out[:0], p.out[n:]...)
	return n, nil
}
