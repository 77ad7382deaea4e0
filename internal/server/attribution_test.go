package server_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/server"
	"splitfs/internal/sim"
	"splitfs/internal/stack"
	"splitfs/internal/vfs"
)

// TestForegroundBytesCoverLeasedWrites: two tenant sessions over
// splitfs-strict with leases write 4 KB blocks through their leased
// mappings and fsync every eighth, each from its own goroutine. A leased
// write is the client's own store, so every leased byte is a foreground
// byte, and the device's foreground source must count at least as many
// bytes as the clients leased — however the tenants' fsyncs, whose relink
// and reclaim stages write under their own sources, interleave with the
// other tenant's stores.
func TestForegroundBytesCoverLeasedWrites(t *testing.T) {
	st, err := stack.New("splitfs-strict", stack.Small)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st.FS, server.Config{})
	defer srv.Close()
	const tenants, writes = 2, 256
	clients := make([]*server.Client, tenants)
	for i := range clients {
		root := fmt.Sprintf("/t%d", i)
		if err := st.FS.Mkdir(root, 0o755); err != nil {
			t.Fatal(err)
		}
		c, _ := leasePipeClient(t, srv, root)
		defer c.Close()
		clients[i] = c
	}
	fg0 := st.Dev.SourceStats(pmem.SrcForeground).BytesWritten
	block := bytes.Repeat([]byte{0x3c}, sim.BlockSize)
	errs := make(chan error, tenants)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := c.OpenFile("/data", vfs.O_CREATE|vfs.O_RDWR, 0o644)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			for i := range int64(writes) {
				if _, err := f.WriteAt(block, i*sim.BlockSize); err != nil {
					errs <- err
					return
				}
				if i%8 == 7 {
					if err := f.Sync(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var leased int64
	for _, c := range clients {
		leased += c.Stats().LeasedWriteBytes
	}
	if leased == 0 {
		t.Fatal("no write went through a lease")
	}
	if fg := st.Dev.SourceStats(pmem.SrcForeground).BytesWritten - fg0; fg < leased {
		t.Fatalf("the device counted %d foreground bytes under %d leased write bytes", fg, leased)
	}
}
