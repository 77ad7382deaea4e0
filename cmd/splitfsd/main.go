// Command splitfsd serves a simulated PM file system to many client
// processes over a unix socket — the repository's equivalent of the
// paper's multi-process U-Split deployment (§3), built on the
// internal/server session/RPC layer. Each connection is one confined
// session: the client's first frame names a subtree root, every path it
// sends resolves inside that subtree, and its requests run one at a
// time, in order, on the goroutine serving the connection.
//
// Usage:
//
//	splitfsd -socket /tmp/splitfs.sock -backend splitfs-strict
//	splitfsd -backend nova-relaxed -dev-mb 256
//	splitfsd -mkdirs /tenant0,/tenant1    # pre-create session roots
//	splitfsd -ctl-socket /tmp/splitfs.ctl # control/introspection socket
//
// -ctl-socket binds the observability plane's control surface on a
// second unix socket, kept separate from the data plane so a wedged
// daemon can still be inspected: one command line per connection —
// "stats", "sessions", "trace <id>", "pprof cpu [sec]", "pprof heap"
// (see internal/server ctl.go; splitfs-shell -ctl speaks it).
//
// Any of the eight kinds of internal/stack is servable; the served: and
// served-lease: wrapper names are refused — the daemon is the server.
// The daemon owns the device: all state is in memory and vanishes on
// exit, so splitfsd is a serving harness, not a persistence daemon.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"splitfs/internal/server"
	"splitfs/internal/stack"
)

func main() {
	socket := flag.String("socket", "/tmp/splitfsd.sock", "unix socket path to listen on")
	ctlSocket := flag.String("ctl-socket", "", "unix socket path for the control surface (empty = disabled)")
	backend := flag.String("backend", "splitfs-strict",
		fmt.Sprintf("backend kind to serve (one of %v)", stack.Kinds()))
	devMB := flag.Int64("dev-mb", 128, "simulated PM device size in MB")
	mkdirs := flag.String("mkdirs", "", "comma-separated directories to pre-create (session roots)")
	flag.Parse()

	if _, served, _, err := stack.Parse(*backend); err != nil || served {
		fmt.Fprintf(os.Stderr, "splitfsd: unknown backend %q (have %v)\n", *backend, stack.Kinds())
		os.Exit(2)
	}
	spec := stack.Small
	spec.DevBytes = *devMB << 20
	b, err := stack.New(*backend, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitfsd: %v\n", err)
		os.Exit(1)
	}
	for _, d := range strings.Split(*mkdirs, ",") {
		if d = strings.TrimSpace(d); d != "" {
			if err := b.FS.Mkdir(d, 0755); err != nil {
				fmt.Fprintf(os.Stderr, "splitfsd: mkdir %s: %v\n", d, err)
				os.Exit(1)
			}
		}
	}

	os.Remove(*socket) // a stale socket from a dead daemon
	ln, err := net.Listen("unix", *socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitfsd: listen: %v\n", err)
		os.Exit(1)
	}
	srv := server.New(b.FS, server.Config{
		// A live daemon is outside the deterministic contract, so op
		// cost feeds from the wall clock; fence deltas still come from
		// the simulated device.
		OpClock:  func() int64 { return time.Now().UnixNano() },
		OpFences: b.Dev.FenceCount,
	})
	var ctlLn net.Listener
	if *ctlSocket != "" {
		os.Remove(*ctlSocket)
		ctlLn, err = net.Listen("unix", *ctlSocket)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitfsd: ctl listen: %v\n", err)
			os.Exit(1)
		}
		go srv.ServeCtl(ctlLn)
		fmt.Printf("splitfsd: control surface on %s\n", *ctlSocket)
	}
	fmt.Printf("splitfsd: serving %s (%d MB device) on %s\n", b.FS.Name(), *devMB, *socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("splitfsd: shutting down")
		srv.Close()
		ln.Close()
		os.Remove(*socket)
		if ctlLn != nil {
			ctlLn.Close()
			os.Remove(*ctlSocket)
		}
	}()
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "splitfsd: serve: %v\n", err)
		os.Exit(1)
	}
}
