package splitfs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// ckptScenario is a strict instance whose 64 KB op log cannot take one
// more entry: /a holds a run of small logged appends, /b a few logged
// bytes, nothing is fsynced. The next logged operation has to checkpoint
// first. The models are what the strict guarantee owes each file.
type ckptScenario struct {
	dev    *pmem.Device
	fs     *FS
	a, b   *File
	modelA []byte
	modelB []byte
}

var ckptConfig = Config{Mode: Strict, StagingFiles: 4, StagingFileBytes: 4 << 20, OpLogBytes: 64 << 10}

func newCkptScenario(t *testing.T) *ckptScenario {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, ckptConfig)
	if err != nil {
		t.Fatal(err)
	}
	s := &ckptScenario{dev: dev, fs: fs}
	open := func(path string) *File {
		f, err := vfs.Create(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		return f.(*File)
	}
	s.a, s.b = open("/a"), open("/b")
	s.modelB = bytes.Repeat([]byte{0xb0}, 3000)
	if _, err := s.b.WriteAt(s.modelB, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; fs.olog.Used()+logEntryBytes <= fs.olog.Capacity(); i++ {
		blk := bytes.Repeat([]byte{byte(i%251 + 1)}, 96)
		if _, err := s.a.Write(blk); err != nil {
			t.Fatal(err)
		}
		s.modelA = append(s.modelA, blk...)
	}
	if fs.Stats().Checkpoints != 0 {
		t.Fatal("scenario checkpointed while filling the log")
	}
	return s
}

// write is the operation under test: an overwrite of /b that also extends
// it, applied to the model as well.
func (s *ckptScenario) write(t *testing.T) {
	t.Helper()
	p := bytes.Repeat([]byte{0x5c}, 5000)
	if _, err := s.b.WriteAt(p, 100); err != nil {
		t.Fatal(err)
	}
	s.modelB = append(s.modelB[:100:100], p...)
}

// recover crashes the device to the image of the point it was armed at
// (the zero point: the unfenced lines reverted), remounts and recovers,
// and returns the recovered contents of /a and /b.
func (s *ckptScenario) recover(t *testing.T, at pmem.CrashPoint) (a, b []byte, report *RecoveryReport) {
	t.Helper()
	at.Crash(s.dev)
	kfs, _, err := ext4dax.Mount(s.dev, ext4dax.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs, report, err := RecoverFS(kfs, ckptConfig)
	if err != nil {
		t.Fatal(err)
	}
	if a, err = vfs.ReadFile(fs, "/a"); err != nil {
		t.Fatal(err)
	}
	if b, err = vfs.ReadFile(fs, "/b"); err != nil {
		t.Fatal(err)
	}
	return a, b, report
}

// TestCheckpointBeforeWrite: a write whose log entry does not fit
// checkpoints BEFORE it stages anything. Its own bytes are therefore
// still staged — and still named by a live entry in the fresh log — when
// it returns, and a crash replays them. (When the checkpoint ran inside
// the write, it relinked the write's bytes first and then logged an entry
// for a range that was already gone: an entry that could never replay.)
func TestCheckpointBeforeWrite(t *testing.T) {
	s := newCkptScenario(t)
	s.write(t)
	if got := s.fs.Stats().Checkpoints; got != 1 {
		t.Fatalf("%d checkpoints, want 1", got)
	}
	if got := s.fs.olog.Entries(); got != 1 {
		t.Fatalf("%d entries in the log after the checkpoint, want the write's own", got)
	}
	s.a.of.mu.RLock()
	stagedA := len(s.a.of.staged)
	s.a.of.mu.RUnlock()
	s.b.of.mu.RLock()
	stagedB := len(s.b.of.staged)
	s.b.of.mu.RUnlock()
	if stagedA != 0 || stagedB == 0 {
		t.Fatalf("staged ranges after the write: /a %d (want 0, checkpointed), /b %d (want the write's)", stagedA, stagedB)
	}
	got := make([]byte, len(s.modelB))
	if _, err := s.b.ReadAt(got, 0); err != nil || !bytes.Equal(got, s.modelB) {
		t.Fatalf("read back through the overlay: err %v, match %v", err, bytes.Equal(got, s.modelB))
	}
	a, b, report := s.recover(t, pmem.CrashPoint{})
	if report.Replayed < 1 {
		t.Errorf("recovery replayed nothing: %+v", report)
	}
	if !bytes.Equal(a, s.modelA) {
		t.Errorf("/a: %d bytes recovered, want the %d logged before the checkpoint", len(a), len(s.modelA))
	}
	if !bytes.Equal(b, s.modelB) {
		t.Errorf("/b: the write that checkpointed did not survive the crash (%d bytes, want %d)", len(b), len(s.modelB))
	}
}

// TestCheckpointWriteCrashSweep crashes that write at every persistence
// event from its first to its last — relink of both files, the group
// commit, zeroing the log, staging, the new entry — each of the four ways,
// and holds recovery to the strict oracle: /a keeps every logged append,
// /b is the file just before or just after the write, never anything else.
func TestCheckpointWriteCrashSweep(t *testing.T) {
	rec := newCkptScenario(t)
	before := append([]byte(nil), rec.modelB...)
	first := rec.dev.Events() + 1
	rec.dev.SetTracing(true)
	rec.write(t)
	last := rec.dev.Events()
	if last-first < 20 {
		t.Fatalf("the write spans events %d..%d: no checkpoint inside it?", first, last)
	}
	sawBefore, sawAfter, points := false, false, 0
	for p := range pmem.CrashPoints(rec.dev.Trace(), 2) {
		s := newCkptScenario(t)
		if got := s.dev.Events() + 1; got != first {
			t.Fatalf("replay diverged: write starts at event %d, recorded %d", got, first)
		}
		p.Arm(s.dev)
		s.write(t)
		if !s.dev.CrashFired() {
			t.Fatalf("%v never fired", p)
		}
		a, b, _ := s.recover(t, p)
		if !bytes.Equal(a, s.modelA) {
			t.Fatalf("crash at %v: /a lost logged appends (%d bytes, want %d)", p, len(a), len(s.modelA))
		}
		switch {
		case bytes.Equal(b, before):
			sawBefore = true
		case bytes.Equal(b, s.modelB):
			sawAfter = true
		default:
			t.Fatalf("crash at %v: /b (%d bytes) is neither the file before the write nor after it", p, len(b))
		}
		points++
	}
	t.Logf("%d crash points at events %d..%d of the checkpointing write", points, first, last)
	if !sawBefore || !sawAfter {
		t.Fatalf("sweep of events %d..%d saw before=%v after=%v: it did not straddle the write", first, last, sawBefore, sawAfter)
	}
}

// TestWriteLargerThanLogFailsBeforeStaging: a write that would need more
// log entries than the whole log holds is refused up front — no panic,
// nothing staged, nothing logged, no checkpoint.
func TestWriteLargerThanLogFailsBeforeStaging(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 256 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// 8 KB staging files cut a write into 4 KB pieces, one entry each; the
	// 64 KB log holds 1023 entries.
	fs, err := New(kfs, Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 8 << 10,
		StagingChunkBytes: 4 << 10, OpLogBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/big")
	if err != nil {
		t.Fatal(err)
	}
	before, entries := fs.Stats(), fs.olog.Entries()
	n, err := f.WriteAt(make([]byte, 1100*4096), 0)
	if !errors.Is(err, vfs.ErrNoSpace) || n != 0 {
		t.Fatalf("WriteAt = %d, %v; want 0, ErrNoSpace", n, err)
	}
	if n, err = f.Write(make([]byte, 1100*4096)); !errors.Is(err, vfs.ErrNoSpace) || n != 0 {
		t.Fatalf("Write = %d, %v; want 0, ErrNoSpace", n, err)
	}
	if after := fs.Stats(); after != before || fs.olog.Entries() != entries {
		t.Fatalf("a refused write left traces: stats %+v -> %+v, log entries %d -> %d", before, after, entries, fs.olog.Entries())
	}
	// A write of a few pieces goes through.
	if _, err := f.WriteAt(make([]byte, 4*4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFailureFailsTheOperation, named for what it used to
// assert: a strict log that cannot take one more entry, and K-Split
// metadata enough to outgrow a 16-block journal, and then any logging
// operation. Its checkpoint used to fail at commit, and the operation
// with it; now credits commit the running transaction before it outgrows
// the journal, the checkpoint relinks, commits and zeroes the log, and
// the operation succeeds. A crash at any event of the operation or of a
// create and write after it, taken each of the four ways, recovers /f's
// writes, and the operation's effect once it had returned.
func TestCheckpointFailureFailsTheOperation(t *testing.T) {
	ops := map[string]func(fs *FS, f vfs.File) error{
		"write":  func(fs *FS, f vfs.File) error { _, err := f.Write(make([]byte, 32)); return err },
		"close":  func(fs *FS, f vfs.File) error { return f.Close() },
		"open":   func(fs *FS, f vfs.File) error { _, err := vfs.Open(fs, "/f"); return err },
		"unlink": func(fs *FS, f vfs.File) error { return fs.Unlink("/f") },
		"rename": func(fs *FS, f vfs.File) error { return fs.Rename("/f", "/g") },
	}
	kcfg := ext4dax.Config{JournalBlocks: 16, MaxInodes: 512}
	cfg := Config{Mode: Strict, StagingFiles: 2, StagingFileBytes: 1 << 20, OpLogBytes: 64 << 10}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			var model []byte
			run := func(arm func(*pmem.Device)) (dev *pmem.Device, end int64) {
				dev = pmem.New(pmem.Config{Size: 64 << 20, Clock: sim.NewClock(), TrackPersistence: true})
				kfs, err := ext4dax.Mkfs(dev, kcfg)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := New(kfs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				f, err := vfs.Create(fs, "/f")
				if err != nil {
					t.Fatal(err)
				}
				model = model[:0]
				for fs.olog.Used()+logEntryBytes <= fs.olog.Capacity() {
					p := pattern(32, byte(len(model)/32))
					if _, err := f.Write(p); err != nil {
						t.Fatal(err)
					}
					model = append(model, p...)
				}
				outgrowJournal(t, kfs)
				arm(dev)
				if err := op(fs, f); err != nil {
					t.Fatalf("the operation after outgrowing the journal: %v", err)
				}
				if fs.Stats().Checkpoints != 1 {
					t.Fatalf("%d checkpoints, want 1", fs.Stats().Checkpoints)
				}
				// A step past the operation, so that some crash points
				// fall after it returned.
				end = dev.Events()
				h, err := vfs.Create(fs, "/h")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.Write(make([]byte, 32)); err != nil {
					t.Fatal(err)
				}
				return dev, end
			}
			ref, _ := run(func(dev *pmem.Device) { dev.SetTracing(true) })
			points, after := 0, 0
			for p := range pmem.CrashPoints(ref.Trace(), 2) {
				dev, end := run(p.Arm)
				p.Crash(dev)
				returned := p.Ev.Seq > end // the operation's last event is end
				kfs, _, err := ext4dax.Mount(dev, ext4dax.Config{})
				if err != nil {
					t.Fatal(err)
				}
				fs, _, err := RecoverFS(kfs, cfg)
				if err != nil {
					t.Fatalf("crash at %v: %v", p, err)
				}
				f, errF := vfs.ReadFile(fs, "/f")
				g, errG := vfs.ReadFile(fs, "/g")
				gone := func(err error) bool { return errors.Is(err, vfs.ErrNotExist) }
				ok := errF == nil && bytes.Equal(f, model) && gone(errG) // the image before the operation
				switch name {
				case "write":
					ok = ok && !returned || errF == nil && bytes.Equal(f, append(slices.Clip(model), make([]byte, 32)...))
				case "unlink":
					ok = ok && !returned || gone(errF) && gone(errG)
				case "rename":
					ok = ok && !returned || gone(errF) && errG == nil && bytes.Equal(g, model)
				}
				if !ok {
					t.Fatalf("crash at %v (operation returned: %v): /f %d bytes (%v), /g %d bytes (%v); %d written",
						p, returned, len(f), errF, len(g), errG, len(model))
				}
				if err := fs.Check(); err != nil {
					t.Fatalf("crash at %v: %v", p, err)
				}
				points++
				if returned {
					after++
				}
			}
			t.Logf("%d crash points, %d after the operation returned", points, after)
			if after == 0 {
				t.Fatal("no crash point after the operation returned")
			}
		})
	}
}
