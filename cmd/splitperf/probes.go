package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	rootfs "splitfs"
	"splitfs/internal/ext4dax"
	"splitfs/internal/journal"
	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/splitfs"
	"splitfs/internal/vfs"
)

// The probes time direct calls into each layer's public functions:
// ext4dax, journal and pmem sit below splitfs.New(kfs *ext4dax.FS) and
// cannot be interposed on from outside, so their host time comes from
// here. Set-up is outside the timer; every probe reports the median of
// probeBatches batches.
const (
	probeBatches = 15
	probeDev     = 64 << 20
)

// timeBatches returns the median over batches of body's duration per
// iteration, in ns. body runs iters iterations and returns the time to
// exclude (work it had to do between the timed calls).
func timeBatches(iters int, body func(batch int) time.Duration) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		excluded := body(b)
		per[b] = float64(time.Since(t0)-excluded) / float64(iters)
	}
	return median(per)
}

func runProbes() []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	must := func(err error) {
		if err != nil {
			// The probes run fixed calls on fresh devices; a failure is
			// a broken build, not an input.
			fatal(fmt.Errorf("probe: %w", err))
		}
	}
	block := make([]byte, blk)
	for i := range block {
		block[i] = byte(i)
	}

	// pmem: a tracked device, as append-fsync and every crash campaign use.
	newDev := func() *pmem.Device {
		return pmem.New(pmem.Config{Size: probeDev, Clock: sim.NewClock(), TrackPersistence: true, TrackWear: true})
	}
	dev := newDev()
	const n = 1024
	add("pmem.storent_4k_host_ns", timeBatches(n, func(int) time.Duration {
		for i := 0; i < n; i++ {
			dev.StoreNT(int64(i)*blk, block, sim.CatPMData)
		}
		t0 := time.Now()
		dev.Fence()
		return time.Since(t0)
	}), "ns")
	add("pmem.store_flush_64b_host_ns", timeBatches(n, func(int) time.Duration {
		for i := 0; i < n; i++ {
			dev.Store(int64(i)*blk, block[:sim.CacheLine], sim.CatPMMeta)
			dev.Flush(int64(i)*blk, sim.CacheLine, sim.CatPMMeta)
		}
		t0 := time.Now()
		dev.Fence()
		return time.Since(t0)
	}), "ns")
	add("pmem.read_4k_host_ns", timeBatches(n, func(int) time.Duration {
		for i := 0; i < n; i++ {
			dev.ReadIntoUser(block, int64(i)*blk, sim.CatPMData)
		}
		return 0
	}), "ns")
	// A fence draining one 4 KB block's worth of pending lines.
	add("pmem.fence_host_ns", timeBatches(n/4, func(int) time.Duration {
		var excluded time.Duration
		for i := 0; i < n/4; i++ {
			t0 := time.Now()
			dev.StoreNT(int64(i)*blk, block, sim.CatPMData)
			excluded += time.Since(t0)
			dev.Fence()
		}
		return excluded
	}), "ns")
	add("pmem.new_host_ms", timeBatches(1, func(int) time.Duration {
		dev = newDev()
		return 0
	})/1e6, "ms")
	add("pmem.crash_host_ms", timeBatches(1, func(b int) time.Duration {
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			dev.StoreNT(int64(i)*blk, block, sim.CatPMData)
		}
		excluded := time.Since(t0)
		must(dev.Crash(sim.NewRNG(uint64(b) + 1)))
		return excluded
	})/1e6, "ms")

	// journal: one commit of 8 home blocks.
	dev = newDev()
	jnl := journal.New(dev, 0, 256)
	home := int64(8 << 20)
	add("journal.commit_8blk_host_ns", timeBatches(64, func(int) time.Duration {
		for i := 0; i < 64; i++ {
			tx := jnl.Begin()
			for b := int64(0); b < 8; b++ {
				dev.Store(home+b*blk, block[:sim.CacheLine], sim.CatPMMeta)
				tx.Note(home+b*blk, sim.CacheLine)
			}
			must(tx.Commit()) // flushes and fences the noted ranges
		}
		return 0
	}), "ns")

	// ext4dax.
	kfs, err := ext4dax.Mkfs(newDev(), ext4dax.Config{})
	must(err)
	kf, err := kfs.OpenFile("/f", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	must(err)
	add("ext4dax.write4k_fsync_host_ns", timeBatches(64, func(int) time.Duration {
		for i := 0; i < 64; i++ {
			_, err := kf.WriteAt(block, int64(i)*blk)
			must(err)
			must(kf.Sync())
		}
		return 0
	}), "ns")
	add("ext4dax.create_unlink_host_ns", timeBatches(64, func(int) time.Duration {
		for i := 0; i < 64; i++ {
			f, err := kfs.OpenFile("/g", vfs.O_CREATE|vfs.O_WRONLY, 0o644)
			must(err)
			must(f.Close())
			must(kfs.Unlink("/g"))
		}
		return 0
	}), "ns")
	add("ext4dax.mkfs_host_ms", timeBatches(1, func(int) time.Duration {
		t0 := time.Now()
		dev = newDev()
		excluded := time.Since(t0)
		_, err := ext4dax.Mkfs(dev, ext4dax.Config{})
		must(err)
		return excluded
	})/1e6, "ms")
	add("ext4dax.mount_host_ms", timeBatches(1, func(int) time.Duration {
		_, _, err := ext4dax.Mount(dev, ext4dax.Config{})
		must(err)
		return 0
	})/1e6, "ms")

	// server: one stat round trip over each transport, and a 4 KB read
	// over the wire against one through a lease.
	st, err := rootfs.NewStack(rootfs.StackConfig{DeviceBytes: 128 << 20, Mode: splitfs.Strict})
	must(err)
	srv := server.New(st.FS, server.Config{})
	must(vfs.WriteFile(st.FS, "/f", make([]byte, 1<<20)))
	var serving sync.WaitGroup
	dial := func(leases bool, pair func() (net.Conn, net.Conn, error)) *server.Client {
		cs, ss, err := pair()
		must(err)
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = srv.ServeConn(ss) // returns when srv.Close closes the connection
		}()
		c, err := server.DialConfig(cs, server.ClientConfig{EnableLeases: leases})
		must(err)
		return c
	}
	pipe := func() (net.Conn, net.Conn, error) { a, b := net.Pipe(); return a, b, nil }
	loopback, err := server.NewLoopbackConfig(srv, server.ClientConfig{})
	must(err)
	unixWire, unixLeased := dial(false, socketpair), dial(true, socketpair)
	for _, t := range []struct {
		name string
		fs   vfs.FileSystem
	}{{"loopback", loopback}, {"pipe", dial(false, pipe)}, {"unix", unixWire}} {
		add("server.stat_rtt_"+t.name+"_host_ns", timeBatches(256, func(int) time.Duration {
			for i := 0; i < 256; i++ {
				_, err := t.fs.Stat("/f")
				must(err)
			}
			return 0
		}), "ns")
	}
	for _, t := range []struct {
		name string
		c    *server.Client
	}{{"wire", unixWire}, {"leased", unixLeased}} {
		f, err := vfs.Open(t.c, "/f")
		must(err)
		add("server.read4k_"+t.name+"_host_ns", timeBatches(256, func(int) time.Duration {
			for i := 0; i < 256; i++ {
				must(readFull(f, block, int64(i)*blk))
			}
			return 0
		}), "ns")
	}
	if ls := unixLeased.Stats(); ls.LeasedReadBytes == 0 || unixWire.Stats().LeasedReadBytes != 0 {
		must(fmt.Errorf("lease probe took the wrong path: %+v", ls))
	}
	must(srv.Close())
	serving.Wait()
	return out
}
