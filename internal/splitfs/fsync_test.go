package splitfs

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestConcurrentFsyncGroupCommitRace hammers concurrent fsyncs of
// distinct files through relink and group commit — the race test the CI
// matrix runs under -race: each caller relinks its own file and commits
// the shared transaction, for itself and whoever else joined it. Every
// goroutine's data must be intact and durable afterwards.
func TestConcurrentFsyncGroupCommitRace(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, fs := newEnv(t, mode)
			const (
				threads = 6
				rounds  = 40
			)
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					path := fmt.Sprintf("/gc%02d", g)
					f, err := vfs.Create(fs, path)
					if err != nil {
						errs <- err
						return
					}
					blk := bytes.Repeat([]byte{byte(g + 1)}, 1024)
					for i := 0; i < rounds; i++ {
						if _, err := f.Write(blk); err != nil {
							errs <- fmt.Errorf("%s write %d: %w", path, i, err)
							return
						}
						if err := f.Sync(); err != nil {
							errs <- fmt.Errorf("%s fsync %d: %w", path, i, err)
							return
						}
					}
					errs <- f.Close()
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for g := 0; g < threads; g++ {
				data, err := vfs.ReadFile(fs, fmt.Sprintf("/gc%02d", g))
				if err != nil {
					t.Fatal(err)
				}
				if len(data) != rounds*1024 {
					t.Fatalf("file %d: %d bytes, want %d", g, len(data), rounds*1024)
				}
				for i, b := range data {
					if b != byte(g+1) {
						t.Fatalf("file %d: byte %d corrupted (%d)", g, i, b)
					}
				}
			}
		})
	}
}

// TestGroupSyncCoalescesCommits asserts the deterministic batched fsync:
// one SyncAll over N dirty files issues exactly one journal commit,
// against N for serial fsyncs on an identical instance, and strictly
// fewer fences.
func TestGroupSyncCoalescesCommits(t *testing.T) {
	for _, mode := range []Mode{POSIX, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(batched bool) (commits, fences int64) {
				dev, fs := newEnv(t, mode)
				var handles []vfs.File
				blk := make([]byte, 4096)
				for i := 0; i < 8; i++ {
					f, err := vfs.Create(fs, fmt.Sprintf("/f%d", i))
					if err != nil {
						t.Fatal(err)
					}
					for a := 0; a < 4; a++ {
						if _, err := f.Write(blk); err != nil {
							t.Fatal(err)
						}
					}
					handles = append(handles, f)
				}
				commits, fences = fs.KFS().Stats().Commits, dev.Stats().Fences
				if batched {
					if err := fs.SyncAll(); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, f := range handles {
						if err := f.Sync(); err != nil {
							t.Fatal(err)
						}
					}
				}
				return fs.KFS().Stats().Commits - commits, dev.Stats().Fences - fences
			}
			serial, serialFences := run(false)
			grouped, groupedFences := run(true)
			if serial != 8 {
				t.Fatalf("serial fsyncs committed %d times, want 8", serial)
			}
			if grouped != 1 {
				t.Fatalf("SyncAll committed %d times, want 1", grouped)
			}
			if groupedFences >= serialFences {
				t.Fatalf("SyncAll fenced %d times, serial fsyncs %d: want strictly fewer", groupedFences, serialFences)
			}
		})
	}
}

// TestSyncAllCommitsWithNoFileOpen: SyncAll is the "everything so far is
// durable" barrier in every mode, also when no file is open anywhere in
// the instance. POSIX mode used to commit only on behalf of open files,
// so a mkdir followed by SyncAll stayed in K-Split's running transaction
// and a crash rolled it back — after the served resumable client had
// taken the ack as its barrier and emptied its replay log.
func TestSyncAllCommitsWithNoFileOpen(t *testing.T) {
	for _, mode := range []Mode{POSIX, Sync, Strict} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newMetaEnv(t, mode, ext4dax.Config{}, 1<<20)
			if err := e.fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := vfs.SyncAll(e.fs, nil); err != nil {
				t.Fatal(err)
			}
			e.recover(t, nil)
			if fi, err := e.fs.Stat("/d"); err != nil || !fi.IsDir {
				t.Fatalf("/d after SyncAll + crash: %+v, %v", fi, err)
			}
		})
	}
}

// TestStagingReclamation exhausts staging files and verifies they are
// unmapped and unlinked once their staged data has relinked and their
// last reference is gone — and that reads through the surviving overlay
// stay correct throughout.
func TestStagingReclamation(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(),
		TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny staging files so appends exhaust them quickly.
	fs, err := New(kfs, Config{
		Mode:              POSIX,
		StagingFiles:      2,
		StagingFileBytes:  256 << 10,
		StagingChunkBytes: 64 << 10,
		OpLogBytes:        1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/data")
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, 32<<10)
	for i := range blk {
		blk[i] = byte(i)
	}
	// Write + fsync enough to chew through several staging files.
	for i := 0; i < 64; i++ {
		if _, err := f.Write(blk); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.StagingFilesReclaimed(); got == 0 {
		t.Fatalf("no staging files reclaimed after %d staged bytes", 64*len(blk))
	}
	// Reclaimed files must be gone from the staging directory.
	ents, err := fs.KFS().ReadDir("/.splitfs-staging")
	if err != nil {
		t.Fatal(err)
	}
	if live := len(ents); live > 6 {
		t.Fatalf("staging dir still holds %d files after reclamation", live)
	}
	// Content stays intact.
	data, err := vfs.ReadFile(fs, "/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 64*len(blk) {
		t.Fatalf("size %d, want %d", len(data), 64*len(blk))
	}
	for i := 0; i < len(data); i += len(blk) {
		if !bytes.Equal(data[i:i+len(blk)], blk) {
			t.Fatalf("block at %d corrupted", i)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRacesConcurrentFsyncs hammers strict-mode writers whose
// op log fills constantly (checkpoints under wmu sweep and reset the
// log) against concurrent fsyncs, which take no wmu, then crashes and
// recovers: every byte every writer completed must survive. This covers
// the checkpoint/fsync interaction — a checkpoint must commit the
// running journal transaction before zeroing the log so an in-flight
// fsync's relink can never be rolled back after its entries are gone.
func TestCheckpointRacesConcurrentFsyncs(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(),
		TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, Config{
		Mode:             Strict,
		StagingFiles:     4,
		StagingFileBytes: 4 << 20,
		OpLogBytes:       64 << 10, // tiny: checkpoints fire constantly
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		threads = 4
		rounds  = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := vfs.Create(fs, fmt.Sprintf("/ck%02d", g))
			if err != nil {
				errs <- err
				return
			}
			blk := bytes.Repeat([]byte{byte(g + 1)}, 512)
			for i := 0; i < rounds; i++ {
				if _, err := f.Write(blk); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if err := f.Sync(); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- f.Close()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, _, err := RecoverFS(kfs2, Config{Mode: Strict, StagingFiles: 4,
		StagingFileBytes: 4 << 20, OpLogBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < threads; g++ {
		data, err := vfs.ReadFile(fs2, fmt.Sprintf("/ck%02d", g))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != rounds*512 {
			t.Fatalf("file %d: %d bytes survived, want %d", g, len(data), rounds*512)
		}
		for i, b := range data {
			if b != byte(g+1) {
				t.Fatalf("file %d: byte %d corrupted (%d)", g, i, b)
			}
		}
	}
}

// TestConcurrentFsyncSameFile is the same-file case: several goroutines
// fsync one file while another appends to it. An fsync that finds the
// staged ranges already popped by a concurrent one must still not return
// before that relink has committed, so after a crash every byte that was
// written before some fsync began and returned is there.
func TestConcurrentFsyncSameFile(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			dev, fs := newEnv(t, mode)
			f, err := vfs.Create(fs, "/shared")
			if err != nil {
				t.Fatal(err)
			}
			const (
				syncers = 4
				appends = 120
				blkLen  = 700
			)
			var (
				written atomic.Int64 // bytes whose Write has returned
				acked   atomic.Int64 // the most an fsync has promised
				syncs   atomic.Int64 // fsyncs returned
				wg      sync.WaitGroup
				stop    = make(chan struct{})
				errs    = make(chan error, syncers)
			)
			for g := 0; g < syncers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						seen := written.Load()
						if err := f.Sync(); err != nil {
							errs <- err
							return
						}
						for old := acked.Load(); seen > old && !acked.CompareAndSwap(old, seen); old = acked.Load() {
						}
						syncs.Add(1)
					}
				}()
			}
			var werr error
			for i := 0; i < appends && werr == nil; i++ {
				_, werr = f.Write(bytes.Repeat([]byte{byte(i + 1)}, blkLen))
				written.Add(blkLen)
				// Every few appends, let an fsync that saw them finish, so
				// the two sides interleave on any scheduler (a syncer that
				// failed has stopped: do not wait for it).
				for n := syncs.Load(); i%8 == 7 && syncs.Load() < n+syncers && len(errs) == 0; {
					runtime.Gosched()
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			if werr != nil {
				t.Fatal(werr)
			}
			for err := range errs {
				t.Fatal(err)
			}
			if acked.Load() == 0 {
				t.Fatal("no fsync overlapped the appends")
			}
			// No close, no final fsync: only what the racing fsyncs
			// promised is owed.
			if err := dev.Crash(nil); err != nil {
				t.Fatal(err)
			}
			kfs2, _, err := ext4dax.Mount(dev, ext4dax.Config{})
			if err != nil {
				t.Fatal(err)
			}
			fs2, _, err := RecoverFS(kfs2, Config{Mode: mode, StagingFiles: 4,
				StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			data, err := vfs.ReadFile(fs2, "/shared")
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(data)) < acked.Load() {
				t.Fatalf("%d bytes survived, fsync acknowledged %d", len(data), acked.Load())
			}
			for i, b := range data {
				if b != byte(i/blkLen+1) {
					t.Fatalf("byte %d = %d, want %d", i, b, i/blkLen+1)
				}
			}
		})
	}
}
