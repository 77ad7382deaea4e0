package splitfs

import (
	"bytes"
	"errors"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/journal"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestFileSizeBound: U-Split refuses what K-Split's extent records cannot
// hold — a file ends at ext4dax.MaxFileSize, block 2^32 — before anything
// is staged, logged or journaled: a write at or across block 2^32, an
// append past it and a truncate past it are ErrInval with the file's stat,
// U-Split's and K-Split's counters, the op log, the journal and the device
// unchanged, in every mode. A sparse file holding block 2^32 − 1, staged
// and fsynced, round-trips through a crash and recovery.
func TestFileSizeBound(t *testing.T) {
	const last = ext4dax.MaxFileSize - sim.BlockSize
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			dev, fs := newEnv(t, mode)
			f, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE|vfs.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(sim.BlockSize, 5)
			if _, err := f.WriteAt(data, last); err != nil {
				t.Fatalf("a write of block 2^32 - 1: %v", err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}

			type state struct {
				info  vfs.FileInfo
				stats Stats
				kfs   ext4dax.Stats
				log   int64
				jnl   journal.Stats
				dev   pmem.Stats
			}
			snap := func() state {
				info, _ := f.Stat()
				st := state{info, fs.Stats(), fs.kfs.Stats(), 0, fs.kfs.JournalStats(), dev.Stats()}
				if fs.olog != nil { // POSIX mode keeps none
					st.log = fs.olog.Used()
				}
				return st
			}
			before := snap()
			for _, c := range []struct {
				name string
				op   func() error
			}{
				{"a write at block 2^32", func() error { _, err := f.WriteAt(data, ext4dax.MaxFileSize); return err }},
				{"a write across it", func() error { _, err := f.WriteAt(data, last+1); return err }},
				{"an append past it", func() error { _, err := f.Write(data[:1]); return err }},
				{"a truncate past it", func() error { return f.Truncate(ext4dax.MaxFileSize + 1) }},
			} {
				if err := c.op(); !errors.Is(err, vfs.ErrInval) {
					t.Errorf("%s: %v, want ErrInval", c.name, err)
				}
				if after := snap(); after != before {
					t.Errorf("%s changed something:\n%+v\n%+v", c.name, before, after)
				}
			}

			if err := dev.Crash(sim.NewRNG(1)); err != nil {
				t.Fatal(err)
			}
			kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := RecoverFS(kfs, fs.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Check(); err != nil {
				t.Fatal(err)
			}
			g, err := rec.OpenFile("/f", vfs.O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, sim.BlockSize)
			if n, err := g.ReadAt(got, last); n != len(got) || !bytes.Equal(got, data) {
				t.Fatalf("block 2^32 - 1 after the crash: %d bytes, %v", n, err)
			}
			if info, _ := g.Stat(); info.Size != ext4dax.MaxFileSize {
				t.Fatalf("/f after the crash: size %d", info.Size)
			}
		})
	}
}
