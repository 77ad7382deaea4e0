package server_test

import (
	"bytes"
	"net"
	"runtime"
	"testing"

	"splitfs/internal/race"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// allocsPerOp is testing.AllocsPerRun with an unmeasured set-up before
// every run: the mean number of heap allocations one op makes, counted
// across every goroutine — the server's read loop and the client's
// included.
func allocsPerOp(runs int, setup, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	op() // warm: scratch grows to its working size
	var ms runtime.MemStats
	var total uint64
	for range runs {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total) / float64(runs)
}

// TestServedMixAllocations pins the host allocations of each operation
// class of splitperf's served-mix workload, over a net.Pipe client of a
// leased session on splitfs-strict (DESIGN.md, "Host allocation and peak
// RSS"). Every bound is what the change that last moved it measured, and
// atParent what that change's parent did: the change that made the hot
// paths allocation-free; for open+close the one that kept a closed
// read-only handle's backend file open for the next open of its name,
// which dropped the backend open and close; for the truncate the one
// that keyed lease revocation on the server's name table, which dropped
// the revoking fstat and the per-inode lease maps; for stat, open+close
// and rename the one that wrote the wire format once (wire.go's
// layouts), which dropped the flight recorder's second decode of the
// request's path. What is left is the handles each side holds
// (open), a path decoded and resolved into the session's subtree (stat,
// open, rename), the segment and extent tables of a grant on both sides
// (truncate), and the rare staging-file creation or op-log checkpoint
// (the fractions).
func TestServedMixAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, err := stack.New("splitfs-strict", stack.Small)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FS.Mkdir("/t0", 0o755); err != nil {
		t.Fatal(err)
	}
	srv := server.New(st.FS, server.Config{})
	defer srv.Close()
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c, err := server.DialConfig(cs, server.ClientConfig{Root: "/t0", EnableLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks = 64
	open := func(name string, flag int) vfs.File {
		f, err := c.OpenFile(name, flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	block := bytes.Repeat([]byte{0x5a}, sim.BlockSize)
	data := open("/data", vfs.O_CREATE|vfs.O_RDWR)
	wr := open("/wr", vfs.O_CREATE|vfs.O_RDWR)
	log := open("/log", vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND)
	for i := range int64(blocks) {
		for _, f := range []vfs.File{data, wr} {
			if _, err := f.WriteAt(block, i*sim.BlockSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range []vfs.File{data, wr} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := open("/r0", vfs.O_CREATE|vfs.O_WRONLY).Close(); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, sim.BlockSize)
	var next int64
	pwrite := func() {
		_, err := wr.WriteAt(block, next%blocks*sim.BlockSize)
		check(err)
		next += 7
	}
	scratch := [2]string{"/r0", "/r1"}
	var at int
	none := func() {}
	for _, pin := range []struct {
		name           string
		setup, op      func()
		want, atParent float64
	}{
		{"leased 4 KB pread", none, func() {
			_, err := data.ReadAt(buf, next%blocks*sim.BlockSize)
			check(err)
			next += 5
		}, 0, 0},
		{"4 KB pwrite", none, pwrite, 0.15, 3.14},
		{"fsync of 8 staged blocks", func() {
			for range 8 {
				pwrite()
			}
		}, func() { check(wr.Sync()) }, 0.2, 55.59},
		{"1 KB append", none, func() {
			_, err := log.Write(block[:1024])
			check(err)
		}, 0, 2},
		{"stat", none, func() {
			_, err := c.Stat("/data")
			check(err)
		}, 2, 3},
		{"open+close", none, func() {
			f, err := c.OpenFile(scratch[at], vfs.O_RDONLY, 0)
			check(err)
			check(f.Close())
		}, 4, 5},
		{"rename", none, func() {
			check(c.Rename(scratch[at], scratch[1-at]))
			at = 1 - at
		}, 4, 5},
		{"truncate of a leased file, then a re-leased pread", none, func() {
			check(data.Truncate(blocks * sim.BlockSize))
			_, err := data.ReadAt(buf, next%blocks*sim.BlockSize)
			check(err)
			next += 5
		}, 8, 11},
	} {
		// The odd runtime allocation (a timer, a stack growing) lands in
		// some run now and then.
		const slack = 0.05
		if got := allocsPerOp(200, pin.setup, pin.op); got > pin.want+slack {
			t.Errorf("%s: %.2f allocations, want <= %v (%v before)", pin.name, got, pin.want, pin.atParent)
		} else {
			t.Logf("%s: %.2f allocations (bound %v, parent %v)", pin.name, got, pin.want, pin.atParent)
		}
	}
}
