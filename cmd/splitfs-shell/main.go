// Command splitfs-shell is an interactive shell over a SplitFS stack:
// create, write, read, fsync, crash, and recover files on the simulated
// PM device, watching the virtual clock. With -connect it speaks to a
// running splitfsd over its unix socket instead, as one confined client
// session of the multi-tenant service (crash/recover/time are
// daemon-side state and are unavailable remotely; stats renders the
// session's own wire counters instead). With -ctl it speaks one
// command to a daemon's control socket and exits:
//
//	splitfs-shell -ctl /tmp/splitfs.ctl stats
//	splitfs-shell -ctl /tmp/splitfs.ctl trace 3
//	splitfs-shell -ctl /tmp/splitfs.ctl pprof heap > heap.pb.gz
//
// Commands:
//
//	write <path> <text>    append text to a file
//	cat <path>             print a file
//	ls [dir]               list a directory
//	fsync <path>           relink staged data
//	rm <path>              unlink
//	stat <path>            file info
//	crash                  simulate power failure (torn lines; local only)
//	recover                remount + replay (local only)
//	stats                  U-Split and device counters (local), or the
//	                       session's wire counters (remote)
//	time                   simulated clock (local only)
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	root "splitfs"
	"splitfs/internal/server"
	"splitfs/internal/vfs"
)

// runCtl sends one command line to a daemon's control socket and copies
// the reply to stdout (JSON for stats/sessions/trace, binary for
// pprof). Exit status 1 when the daemon answered with an error line.
func runCtl(socket string, args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "splitfs-shell: -ctl needs a command (stats | sessions | trace <id> | pprof cpu [sec] | pprof heap)")
		return 2
	}
	c, err := net.Dial("unix", socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitfs-shell: ctl dial: %v\n", err)
		return 1
	}
	defer c.Close()
	if _, err := fmt.Fprintf(c, "%s\n", strings.Join(args, " ")); err != nil {
		fmt.Fprintf(os.Stderr, "splitfs-shell: ctl send: %v\n", err)
		return 1
	}
	var out strings.Builder
	if _, err := io.Copy(io.MultiWriter(os.Stdout, &out), c); err != nil {
		fmt.Fprintf(os.Stderr, "splitfs-shell: ctl read: %v\n", err)
		return 1
	}
	if strings.HasPrefix(out.String(), "error: ") {
		return 1
	}
	return 0
}

func main() {
	connect := flag.String("connect", "", "unix socket of a running splitfsd (empty = local in-process stack)")
	ctl := flag.String("ctl", "", "control socket of a running splitfsd: send the positional arguments as one control command and exit")
	sessRoot := flag.String("root", "/", "session root when connecting (the served subtree this shell is confined to)")
	flag.Parse()

	if *ctl != "" {
		os.Exit(runCtl(*ctl, flag.Args()))
	}

	mode := root.Strict
	var fs vfs.FileSystem
	var stack *root.Stack
	var cl *server.Client // the remote session, for its data-plane stats
	if *connect != "" {
		c, err := server.DialNetConfig("unix", *connect, server.ClientConfig{Root: *sessRoot})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer c.Close()
		fs = c
		cl = c
		fmt.Printf("splitfs-shell: connected to %s on %s (session root %s). 'help' for commands.\n",
			c.Name(), *connect, *sessRoot)
	} else {
		var err error
		stack, err = root.NewStack(root.StackConfig{Mode: mode, TrackPersistence: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fs = stack.FS
		fmt.Printf("splitfs-shell: %s on a %d MB simulated PM device. 'help' for commands.\n",
			stack.FS.Name(), stack.Device.Size()>>20)
	}
	sc := bufio.NewScanner(os.Stdin)
	handles := map[string]vfs.File{}
	open := func(p string) (vfs.File, error) {
		if h, ok := handles[p]; ok {
			return h, nil
		}
		h, err := fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err == nil {
			handles[p] = h
		}
		return h, err
	}
	closeAll := func() {
		for p, h := range handles {
			h.Close()
			delete(handles, p)
		}
	}
	localOnly := func(cmd string) bool {
		if stack == nil {
			fmt.Printf("%s is unavailable over a remote session (daemon-side state)\n", cmd)
			return false
		}
		return true
	}
	for {
		fmt.Print("splitfs> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var err error
		switch cmd := fields[0]; cmd {
		case "quit", "exit":
			closeAll()
			return
		case "help":
			fmt.Println("write cat ls fsync rm stat crash recover stats time quit")
		case "write":
			if len(fields) < 3 {
				fmt.Println("usage: write <path> <text>")
				continue
			}
			var h vfs.File
			if h, err = open(fields[1]); err == nil {
				_, err = h.Write([]byte(strings.Join(fields[2:], " ") + "\n"))
			}
		case "cat":
			var data []byte
			if data, err = vfs.ReadFile(fs, fields[1]); err == nil {
				fmt.Print(string(data))
			}
		case "ls":
			dir := "/"
			if len(fields) > 1 {
				dir = fields[1]
			}
			var ents []vfs.DirEntry
			if ents, err = fs.ReadDir(dir); err == nil {
				for _, e := range ents {
					kind := "f"
					if e.IsDir {
						kind = "d"
					}
					fmt.Printf("%s %6d %s\n", kind, e.Ino, e.Name)
				}
			}
		case "fsync":
			var h vfs.File
			if h, err = open(fields[1]); err == nil {
				err = h.Sync()
			}
		case "rm":
			// Drop the cached handle: a later write to this path must
			// create a fresh file, not feed the unlinked one.
			if h, ok := handles[fields[1]]; ok {
				h.Close()
				delete(handles, fields[1])
			}
			err = fs.Unlink(fields[1])
		case "stat":
			var info vfs.FileInfo
			if info, err = fs.Stat(fields[1]); err == nil {
				fmt.Printf("ino=%d size=%d blocks=%d dir=%v\n",
					info.Ino, info.Size, info.Blocks, info.IsDir)
			}
		case "crash":
			if !localOnly(cmd) {
				continue
			}
			closeAll()
			if err = stack.Crash(42); err == nil {
				fmt.Println("power failed; run 'recover'")
			}
		case "recover":
			if !localOnly(cmd) {
				continue
			}
			closeAll()
			newStack, rep, rerr := stack.Recover(mode)
			err = rerr
			if err == nil {
				stack = newStack
				fs = stack.FS
				fmt.Printf("recovered: %d entries, %d writes replayed, %d metadata operations redone, %.2f ms simulated\n",
					rep.Entries, rep.Replayed, rep.MetaReplayed, float64(rep.ReplayNs)/1e6)
			}
		case "stats":
			if stack == nil {
				// Remote session: the data bytes the client moved over the
				// wire (a session over a socket takes no leases).
				cs := cl.Stats()
				fmt.Printf("wire:    read=%dB written=%dB\n", cs.WireReadBytes, cs.WireWriteBytes)
				continue
			}
			st := stack.FS.Stats()
			ds := stack.Device.Stats()
			fmt.Printf("usplit: reads=%d writes=%d appends=%d relinks=%d copied=%dB log=%d\n",
				st.UserReads, st.UserWrites, st.Appends, st.Relinks, st.CopiedBytes, st.LogEntries)
			fmt.Printf("device: written=%dB read=%dB fences=%d maxwear=%d\n",
				ds.BytesWritten(), ds.BytesRead, ds.Fences, stack.Device.MaxWear())
		case "time":
			if !localOnly(cmd) {
				continue
			}
			fmt.Printf("%.3f ms simulated\n", float64(stack.Clock.Now())/1e6)
		default:
			fmt.Printf("unknown command %q\n", cmd)
			continue
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	}
}
