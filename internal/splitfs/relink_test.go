package splitfs

import (
	"bytes"
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Tests of relink as a move (DESIGN.md, "Relink is a move"): no block is
// allocated to relink, an append's partial last block moves whole with
// its slack zeroed, and the active chunk's cursor leaves the moved block.

// fillDevice writes to a K-Split file until no block is free.
func fillDevice(t *testing.T, kfs *ext4dax.FS) {
	t.Helper()
	filler, err := vfs.Create(kfs, "/filler")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for off := int64(0); kfs.FreeBlocks() > 0; {
		n, err := filler.WriteAt(chunk[:min(int64(len(chunk)), kfs.FreeBlocks()*sim.BlockSize)], off)
		if err != nil {
			t.Fatalf("filling the device at %d with %d blocks free: %v", off, kfs.FreeBlocks(), err)
		}
		off += int64(n)
	}
	kfs.CommitMeta()
	if free := kfs.FreeBlocks(); free != 0 {
		t.Fatalf("device still has %d free blocks", free)
	}
}

// TestRelinkNeedsNoFreeBlocks: data staged on PM must be able to become
// durable on a full device. Relink used to allocate the destination
// blocks it was about to swap away and free, so this fsync failed with
// ENOSPC.
func TestRelinkNeedsNoFreeBlocks(t *testing.T) {
	const blocks = 32
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newSmallEnv(t, mode)
			f, err := vfs.Create(fs, "/full")
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(blocks*sim.BlockSize, 9)
			if _, err := f.Write(want); err != nil {
				t.Fatal(err)
			}
			fillDevice(t, fs.kfs)
			if err := f.Sync(); err != nil {
				t.Fatalf("fsync of staged appends on a full device: %v", err)
			}
			if free := fs.kfs.FreeBlocks(); free != 0 {
				t.Fatalf("append relink changed the free count to %d", free)
			}
			checkContent(t, f, want)

			// Overwrite variant (staged only in strict mode; elsewhere an
			// overwrite is an in-place store and frees nothing): the old
			// destination blocks are freed by the relink's own transaction,
			// and the device is still full while it runs.
			copy(want[sim.BlockSize:], pattern(8*sim.BlockSize, 10))
			if _, err := f.WriteAt(want[sim.BlockSize:9*sim.BlockSize], sim.BlockSize); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatalf("fsync of a staged overwrite on a full device: %v", err)
			}
			wantFree := int64(0)
			if mode == Strict {
				wantFree = 8
			}
			if free := fs.kfs.FreeBlocks(); free != wantFree {
				t.Fatalf("after the overwrite relink %d blocks are free, want %d", free, wantFree)
			}
			checkContent(t, f, want)
			if info, _ := fs.kfs.Stat("/full"); info.Blocks != blocks {
				t.Fatalf("file holds %d blocks, want %d", info.Blocks, blocks)
			}
		})
	}
}

// newSmallEnv is newEnv on a 32 MB device, small enough to fill.
func newSmallEnv(t testing.TB, mode Mode) (*pmem.Device, *FS) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 32 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, smallConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

func smallConfig(mode Mode) Config {
	return Config{Mode: mode, StagingFiles: 2, StagingFileBytes: 2 << 20, OpLogBytes: 256 << 10}
}

func checkContent(t *testing.T, f vfs.File, want []byte) {
	t.Helper()
	got := make([]byte, len(want)+1)
	n, _ := f.ReadAt(got, 0)
	if n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatalf("%s: read %d bytes, want %d; first difference at %d", f.Path(), n, len(want), firstDiff(got[:n], want))
	}
}

// TestTailRelinkCopiesNothing: a file of any size created and fsynced
// reaches K-Split without one byte going through the kernel write path.
func TestTailRelinkCopiesNothing(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			for _, size := range []int{1, 1024, 2048, 4095, 4096, 4097, 6144} {
				name := fmt.Sprintf("/size%d", size)
				f, err := vfs.Create(fs, name)
				if err != nil {
					t.Fatal(err)
				}
				want := pattern(size, byte(size))
				if _, err := f.Write(want); err != nil {
					t.Fatal(err)
				}
				writes := fs.kfs.Stats().DataWrites
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				if st := fs.Stats(); st.CopiedBytes != 0 {
					t.Fatalf("size %d: fsync copied %d bytes", size, st.CopiedBytes)
				}
				if got := fs.kfs.Stats().DataWrites - writes; got != 0 {
					t.Fatalf("size %d: fsync made %d kernel writes", size, got)
				}
				checkContent(t, f, want)
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				// K-Split's own view: byte size, whole blocks, same bytes.
				info, err := fs.kfs.Stat(name)
				if err != nil || info.Size != int64(size) || info.Blocks != int64(size+sim.BlockSize-1)/sim.BlockSize {
					t.Fatalf("size %d: kernel sees size %d in %d blocks (%v)", size, info.Size, info.Blocks, err)
				}
				if got, _ := vfs.ReadFile(fs.kfs, name); !bytes.Equal(got, want) {
					t.Fatalf("size %d: kernel content differs", size)
				}
			}
		})
	}
}

// TestTailRelinkZeroesRecycledSlack: the staging block an append's tail
// lands in may be a recycled one holding old bytes. U-Split zeroes what
// follows the tail before the block moves, so that once it is the file's
// last block every way of growing the file over its slack reads zeros.
func TestTailRelinkZeroesRecycledSlack(t *testing.T) {
	const size = 6000 // block 1 is the moved partial block
	grow := []struct {
		name string
		do   func(f vfs.File) error
		want func(data []byte) []byte
	}{
		{"truncate up", func(f vfs.File) error { return f.Truncate(2 * sim.BlockSize) },
			func(data []byte) []byte { return append(data, make([]byte, 2*sim.BlockSize-size)...) }},
		// Two pieces, both below and beyond the old last block, neither
		// touching it: the first one's relink already grows the file.
		{"overwrite below and write beyond", func(f vfs.File) error {
			if _, err := f.WriteAt(pattern(sim.BlockSize, 9), 0); err != nil {
				return err
			}
			if _, err := f.WriteAt(pattern(10, 10), 3*sim.BlockSize); err != nil {
				return err
			}
			return f.Sync()
		}, func(data []byte) []byte {
			w := append(data, make([]byte, 3*sim.BlockSize+10-size)...)
			copy(w, pattern(sim.BlockSize, 9))
			copy(w[3*sim.BlockSize:], pattern(10, 10))
			return w
		}},
	}
	for _, mode := range allModes() {
		for _, g := range grow {
			t.Run(mode.String()+"/"+g.name, func(t *testing.T) {
				_, fs := newEnv(t, mode)
				// Scribble over the whole first staging file, as if an earlier
				// tenant of these blocks had left its data there.
				sf := fs.staging.ready[0]
				sf.m.StoreNT(pmem.SrcForeground, bytes.Repeat([]byte{0xFF}, int(sf.size)), 0)
				fs.dev.Fence()

				f, err := vfs.Create(fs, "/grow")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(pattern(size, 3)); err != nil {
					t.Fatal(err)
				}
				if f.(*File).of.active.sf != sf {
					t.Fatal("the write was not staged in the scribbled file")
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				if st := fs.Stats(); st.CopiedBytes != 0 || st.RelinkBlocks != 2 {
					t.Fatalf("fsync copied %d bytes and relinked %d blocks, want 0 and 2", st.CopiedBytes, st.RelinkBlocks)
				}
				if err := g.do(f); err != nil {
					t.Fatal(err)
				}
				want := g.want(pattern(size, 3))
				checkContent(t, f, want)
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if got, _ := vfs.ReadFile(fs.kfs, "/grow"); !bytes.Equal(got, want) {
					t.Fatalf("kernel content after growing over the slack differs at %d", firstDiff(got, want))
				}
			})
		}
	}
}

// TestAppendAfterTailRelink: the second append continues mid-block in a
// block the file now owns, so exactly that partial head is copied; it is
// staged in a fresh block, not in the one that was moved away.
func TestAppendAfterTailRelink(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			f, _ := vfs.Create(fs, "/two")
			want := pattern(2048+sim.BlockSize, 6)
			if _, err := f.Write(want[:2048]); err != nil {
				t.Fatal(err)
			}
			of := f.(*File).of
			first := of.active.base / sim.BlockSize
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(want[2048:]); err != nil {
				t.Fatal(err)
			}
			staged := of.staged[len(of.staged)-1]
			if blk := staged.sfOff / sim.BlockSize; staged.sf == of.active.sf && blk == first {
				t.Fatalf("second append staged in block %d, which the first fsync moved away", blk)
			}
			if staged.sfOff%sim.BlockSize != 2048 {
				t.Fatalf("second append staged at in-block offset %d, want 2048", staged.sfOff%sim.BlockSize)
			}
			checkContent(t, f, want)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			if st.CopiedBytes != sim.BlockSize-2048 || st.RelinkBlocks != 2 {
				t.Fatalf("copied %d bytes and relinked %d blocks, want the %d-byte head and 2 blocks",
					st.CopiedBytes, st.RelinkBlocks, sim.BlockSize-2048)
			}
			checkContent(t, f, want)
			f.Close()
			if got, _ := vfs.ReadFile(fs.kfs, "/two"); !bytes.Equal(got, want) {
				t.Fatal("kernel content differs")
			}
		})
	}
}

// TestSmallAppendFsyncLoopStagingBudget: a WAL-style loop of 100-byte
// appends, each fsynced, moves one staging block per file block and
// packs the partial heads it copies into one more — two staging blocks
// per 4 KB of log, not one per fsync.
func TestSmallAppendFsyncLoopStagingBudget(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			f, _ := vfs.Create(fs, "/wal")
			const rounds, rec = 100, 100
			want := pattern(rounds*rec, 8)
			for i := 0; i < rounds; i++ {
				if _, err := f.Write(want[i*rec : (i+1)*rec]); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			fileBlocks := int64(rounds*rec+sim.BlockSize-1) / sim.BlockSize
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := stagingBlocksTaken(fs.staging); got > 2*fileBlocks {
				t.Fatalf("%d fsynced appends took %d staging blocks, budget %d", rounds, got, 2*fileBlocks)
			}
			if got, _ := vfs.ReadFile(fs, "/wal"); !bytes.Equal(got, want) {
				t.Fatal("content differs")
			}
		})
	}
}

// TestTailRelinkCrashSweep crashes a strict-mode fsync that moves a
// partial last block at every one of its persistence events — before and
// after the slack is zeroed, inside the commit, after it — each of the
// four ways, and once more right after the recovery that follows. A
// logged strict write is durable whether or not its relink committed, so
// every crash must recover the same bytes, with zeros past EOF and no
// block leaked or freed twice.
func TestTailRelinkCrashSweep(t *testing.T) {
	want := pattern(sim.BlockSize+1500, 12)
	grown := append(append([]byte(nil), want...), make([]byte, 2*sim.BlockSize-len(want))...)
	// setup stages the append over a scribbled staging file.
	setup := func() (*pmem.Device, *FS, vfs.File) {
		dev, fs := newSmallEnv(t, Strict)
		sf := fs.staging.ready[0]
		sf.m.StoreNT(pmem.SrcForeground, bytes.Repeat([]byte{0xFF}, int(sf.size)), 0)
		fs.dev.Fence()
		f, err := vfs.Create(fs, "/t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(want); err != nil {
			t.Fatal(err)
		}
		return dev, fs, f
	}
	recoverFS := func(dev *pmem.Device) (*FS, *RecoveryReport) {
		t.Helper()
		kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fs, report, err := RecoverFS(kfs, smallConfig(Strict))
		if err != nil {
			t.Fatal(err)
		}
		return fs, report
	}
	// check verifies the recovered image, then grows the file over its
	// slack and verifies that.
	check := func(when string, fs *FS) {
		t.Helper()
		got, err := vfs.ReadFile(fs, "/t")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered %d bytes (%v), want %d intact; first difference at %d",
				when, len(got), err, len(want), firstDiff(got, want))
		}
		f, err := fs.OpenFile("/t", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(int64(len(grown))); err != nil {
			t.Fatal(err)
		}
		checkContent(t, f, grown)
		if err := f.Truncate(int64(len(want))); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	dev, fs, f := setup()
	first := dev.Events()
	dev.SetTracing(true)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.CopiedBytes != 0 || st.RelinkBlocks != 2 {
		t.Fatalf("fsync copied %d bytes and relinked %d blocks, want 0 and 2", st.CopiedBytes, st.RelinkBlocks)
	}

	var replayed, skipped int
	freeRecovered := int64(-1)
	for p := range pmem.CrashPoints(dev.Trace(), 2) {
		dev, _, f := setup()
		if got := dev.Events(); got != first {
			t.Fatalf("setup is not deterministic: %d events, recorded %d", got, first)
		}
		p.Arm(dev)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if !dev.CrashFired() {
			t.Fatalf("%v never fired", p)
		}
		p.Crash(dev)
		rec, report := recoverFS(dev)
		if report.Replayed > 0 {
			replayed++
		} else {
			skipped++
		}
		check(fmt.Sprintf("crash at %v", p), rec)
		// The file owns two blocks whether they were moved or replayed
		// into place, and the rest of a recovered image is the same at
		// every crash point: a different free count is a leaked block.
		if free := rec.kfs.FreeBlocks(); freeRecovered >= 0 && free != freeRecovered {
			t.Fatalf("crash at %v: %d free blocks after recovery, earlier crash points left %d",
				p, free, freeRecovered)
		}
		freeRecovered = rec.kfs.FreeBlocks()
		// Second crash, torn, right after recovery: recovery is idempotent.
		if err := dev.Crash(sim.NewRNG(uint64(p.Ev.Seq) ^ 0xd0b1e)); err != nil {
			t.Fatal(err)
		}
		rec2, _ := recoverFS(dev)
		check(fmt.Sprintf("second crash after %v", p), rec2)
	}
	t.Logf("%d crash points", replayed+skipped)
	if replayed == 0 || skipped == 0 {
		t.Fatalf("sweep saw %d replays and %d committed relinks; want both sides of the commit", replayed, skipped)
	}
}

// TestFsyncCostFlatInFragmentation: two WAL-shaped files appended to and
// fsynced in turn end up with about one extent per block, a dozen
// extent-overflow blocks each — and an fsync of either must cost what the
// relink changed, not what the inode has accumulated: K-Split writes back
// the record lines and the leaves the relink touched, and neither stores,
// journals nor flushes the rest.
func TestFsyncCostFlatInFragmentation(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	clk := dev.Clock()
	var files [2]vfs.File
	for i, p := range []string{"/wal0", "/wal1"} {
		f, err := fs.OpenFile(p, vfs.O_RDWR|vfs.O_CREATE|vfs.O_APPEND, 0644)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	// About one extent per block: enough rounds to fill a dozen leaves.
	const rec, window = 1000, 1000
	const rounds = (ext4dax.InlineExtents + 12*ext4dax.LeafExtents) * sim.BlockSize / rec
	buf := pattern(rec, 3)
	var first, last int64 // simulated ns spent in the first and the last window of fsyncs
	for i := 0; i < rounds; i++ {
		for _, f := range files {
			if _, err := f.Write(buf); err != nil {
				t.Fatal(err)
			}
			t0 := clk.Now()
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			switch {
			case i < window:
				first += clk.Now() - t0
			case i >= rounds-window:
				last += clk.Now() - t0
			}
		}
	}
	dataBlocks := int64(rounds*rec+sim.BlockSize-1) / sim.BlockSize
	for _, f := range files {
		info, err := fs.KFS().Stat(f.Path())
		if err != nil {
			t.Fatal(err)
		}
		if info.Blocks < dataBlocks+10 {
			t.Fatalf("%s holds %d blocks for %d of data: fewer than 10 overflow blocks, the test no longer fragments",
				f.Path(), info.Blocks, dataBlocks)
		}
	}
	if float64(last) > 1.15*float64(first) {
		t.Fatalf("fsync cost grew with the file: %d ns mean over the first %d fsyncs of each file, %d ns over the last %d (%.2fx, want <= 1.15x)",
			first/(2*window), window, last/(2*window), window, float64(last)/float64(first))
	}
	t.Logf("mean fsync: %d ns over the first %d, %d ns over the last %d (%.2fx)",
		first/(2*window), window, last/(2*window), window, float64(last)/float64(first))
}

// TestFsyncCrossingsFlatInPieces: however many disjoint pieces a strict-
// mode fsync relinks — one, eight or sixty-four scattered block
// overwrites — it crosses into K-Split once and opens one journal handle:
// the pieces travel as one relink vector (DESIGN.md, "Relink is a move",
// part 4). One call per piece made both counts equal the pieces.
func TestFsyncCrossingsFlatInPieces(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	clk := dev.Clock()
	f, err := vfs.Create(fs, "/scattered")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(256*sim.BlockSize, 1)
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	of := f.(*File).of
	for _, pieces := range []int{1, 8, 64} {
		scatter := func(seed byte) { // every other block, so no two pieces touch
			for i := 0; i < pieces; i++ {
				off := (2*i + 1) * sim.BlockSize
				copy(want[off:], pattern(sim.BlockSize, seed))
				if _, err := f.WriteAt(want[off:off+sim.BlockSize], int64(off)); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := fs.Stats()
		// The whole fsync — relink, commit, reclaim — traps once.
		scatter(byte(pieces))
		traps := fs.kfs.Stats().Traps
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fs.kfs.Stats().Traps - traps; got != 1 {
			t.Errorf("fsync of %d pieces crossed into K-Split %d times, want 1", pieces, got)
		}
		// Its relink steps charge the journal one handle (the commit's own
		// journal IO comes after them).
		scatter(byte(pieces) + 1)
		of.mu.Lock()
		journal := clk.Snapshot().ByCat[sim.CatJournal]
		txid, released, err := fs.relinkStepsLocked(pmem.SrcRelinkWorker, of, nil)
		handles := clk.Snapshot().ByCat[sim.CatJournal] - journal
		of.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if handles != sim.Ext4JournalHandle.Fixed {
			t.Errorf("relink of %d pieces charged %d ns of journal handles, want one (%d)", pieces, handles, sim.Ext4JournalHandle.Fixed)
		}
		fs.kfs.CommitUpTo(pmem.SrcRelinkWorker, txid)
		fs.staging.release(released)
		after := fs.Stats()
		if moved, copied := after.RelinkBlocks-before.RelinkBlocks, after.CopiedBytes-before.CopiedBytes; moved != int64(2*pieces) || copied != 0 {
			t.Errorf("%d pieces twice: %d blocks relinked and %d bytes copied, want %d and 0", pieces, moved, copied, 2*pieces)
		}
		checkContent(t, f, want)
	}
	if _, err := fs.kfs.Check(); err != nil {
		t.Fatal(err)
	}
}
