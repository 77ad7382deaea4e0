package splitfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/metalog"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// opLogSpan is the device region the instance's op log runs in.
func opLogSpan(t testing.TB, fs *FS) (base, size int64) {
	t.Helper()
	f, err := fs.kfs.OpenFile(fs.opLogPath(), vfs.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, size, err = oplogRegion(fs, f.(*ext4dax.File))
	if err != nil {
		t.Fatal(err)
	}
	return base, size
}

// staleRecord reports whether the image holds a valid one-line record
// right past the lap a scan of the log finds: one of an earlier lap that
// the sequence, not zeroed space, kept out of the scan.
func staleRecord(dev *pmem.Device, base, size int64) bool {
	l, _ := metalog.Load(dev, base, size, sim.CatOpLog)
	off := base + sim.CacheLine + l.Used()
	if off+sim.CacheLine > base+size {
		return false
	}
	line := make([]byte, sim.CacheLine)
	dev.Peek(line, off)
	n := binary.LittleEndian.Uint32(line[0:4])
	seq, sum := binary.LittleEndian.Uint32(line[4:8]), binary.LittleEndian.Uint32(line[8:12])
	return n > 0 && metalog.RecordLen(int(n)) == sim.CacheLine && metalog.Checksum(seq, line[16:16+n]) == sum
}

// TestOpLogBacksOneLap: a strict file that appends and fsyncs covers its
// op log at every fsync, and the log rewinds to its first slot there, so
// its records back one lap's frames, not the region's. 10 000 rounds of
// eight 4 KB appends and an fsync log 80 000 records, 5 MB: a log that
// zeroed and reused its region only when full (§3.3) backed all 256 of
// its frames, and checkpointed four times. The appended data is zeros,
// which back no frame, so the device holds the file's 320 MB without the
// host memory; the frames a record reached are the log blocks whose wear
// moved.
func TestOpLogBacksOneLap(t *testing.T) {
	const rounds, appends = 10000, 8
	dev := pmem.New(pmem.Config{Size: 512 << 20, Clock: sim.NewClock(), TrackPersistence: true, TrackWear: true})
	kfs, err := ext4dax.Mkfs(dev, ext4dax.Config{JournalBlocks: 128, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(kfs, Config{Mode: Strict, StagingFiles: 4, StagingFileBytes: 2 << 20, OpLogBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	base, size := opLogSpan(t, fs)
	f, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	wear := make([]uint32, size/sim.BlockSize)
	for i := range wear {
		wear[i] = dev.Wear(base + int64(i)*sim.BlockSize)
	}
	block := make([]byte, sim.BlockSize)
	for range rounds {
		for range appends {
			if _, err := f.Write(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	frames := 0
	for i := range wear {
		if dev.Wear(base+int64(i)*sim.BlockSize) != wear[i] {
			frames++
		}
	}
	st := fs.Stats()
	t.Logf("%d records in %d laps, %d checkpoints: %d of the log's %d frames backed", st.LogEntries, st.Rewinds, st.Checkpoints, frames, len(wear))
	if frames > 2 || st.Checkpoints != 0 {
		t.Fatalf("the op log backed %d frames and checkpointed %d times, want at most 2 frames and no checkpoint", frames, st.Checkpoints)
	}
}

// TestRewoundLogCrashAtEveryEvent crashes a strict file's appends and
// fsyncs at every persistence event, across three rewinds whose laps
// shrink — six appends, four, two, then one more — so that records of a
// longer lap lie past the tail of a shorter one. Unfenced lines revert
// whole, tear word by word, or a store in flight lands whole. Recovery
// must find every append that had returned and nothing of an earlier lap
// past the one it scans, and some of the images must hold such a record
// for the sweep to mean anything.
func TestRewoundLogCrashAtEveryEvent(t *testing.T) {
	const tears = 3
	laps := []int{6, 4, 2, 1}
	var appends [][]byte
	for i := range 13 {
		appends = append(appends, pattern(100+i, byte(i)))
	}
	// run makes the file and arms the device, then appends and fsyncs;
	// done[i] is the last event of append i.
	run := func(arm func(*pmem.Device)) (e *metaEnv, base, size int64, done []int64) {
		e = newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
		base, size = opLogSpan(t, e.fs)
		f, err := vfs.Create(e.fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		arm(e.dev)
		next := 0
		for i, n := range laps {
			for range n {
				if _, err := f.Write(appends[next]); err != nil {
					t.Fatal(err)
				}
				done = append(done, e.dev.Events())
				next++
			}
			if i < len(laps)-1 {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e, base, size, done
	}
	e, _, _, done := run(func(dev *pmem.Device) { dev.SetTracing(true) })
	if got := e.fs.Stats().Rewinds; got != int64(len(laps)-1) {
		t.Fatalf("the workload rewound %d times, want %d", got, len(laps)-1)
	}
	points, stale := 0, 0
	for p := range pmem.CrashPoints(e.dev.Trace(), tears) {
		returned, _ := slices.BinarySearch(done, p.Ev.Seq)
		e, base, size, _ := run(p.Arm)
		p.Crash(e.dev)
		if staleRecord(e.dev, base, size) {
			stale++
		}
		e.remount(t)
		got, err := vfs.ReadFile(e.fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Join(appends[:returned], nil)) &&
			(returned == len(appends) || !bytes.Equal(got, bytes.Join(appends[:returned+1], nil))) {
			t.Fatalf("crash at %v: /f holds %d bytes, not the %d appends that had returned (and perhaps the next)", p, len(got), returned)
		}
		if err := e.fs.Check(); err != nil {
			t.Fatalf("crash at %v: %v", p, err)
		}
		points++
	}
	t.Logf("%d crash points, %d images held a record of an earlier lap past the scanned one", points, stale)
	if stale == 0 {
		t.Fatal("no crash image held a stale record past the tail: the sweep never tested the sequence's end of the scan")
	}
}

// TestForgedHeaderInALongRecordIsNeverScanned: a rename's destination
// path is tenant-chosen bytes, and a two-line rename record puts some of
// them at the start of a cache line. Here they forge a one-line record
// with a valid CRC-32C and the sequence number a rewound scan would expect
// there — a truncate of /victim to zero. Rewinding over that record would
// let a shorter lap end just before the forged line, and recovery would
// replay it. The log never rewinds while such a record is in the region.
func TestForgedHeaderInALongRecordIsNeverScanned(t *testing.T) {
	const before = 2 // lap-A appends ahead of the rename
	precious := pattern(3000, 9)
	run := func(arm func(*pmem.Device)) (e *metaEnv, rewinds int64) {
		e = newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
		fs := e.fs
		if err := vfs.WriteFile(fs, "/victim", precious); err != nil {
			t.Fatal(err)
		}
		info, err := fs.Stat("/victim")
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "/a", nil); err != nil {
			t.Fatal(err)
		}
		w, err := vfs.Create(fs, "/w")
		if err != nil {
			t.Fatal(err)
		}
		rewinds = fs.Stats().Rewinds + 1
		if err := w.Sync(); err != nil || fs.Stats().Rewinds != rewinds {
			t.Fatalf("set-up fsync: %v, %d rewinds; want lap A to start at the first slot", err, fs.Stats().Rewinds)
		}
		for i := range before {
			if _, err := w.Write(pattern(50, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Lap A holds the writes at slots 1..before and the rename at the
		// next two; lap B would put before+1 writes at slots 1..before+1
		// and expect the forged line's number at the slot after them.
		seq := uint32(1 + fs.Stats().LogEntries + 1 + before + 1)
		forged := forgeTruncate(seq, info.Ino)
		name := string(bytes.Repeat([]byte{'n'}, 33)) + string(forged)
		if err := fs.Rename("/a", "/"+name); err != nil {
			t.Fatal(err)
		}
		base, _ := opLogSpan(t, fs)
		line := make([]byte, sim.CacheLine)
		e.dev.Peek(line, base+int64(before+2)*sim.CacheLine)
		if !bytes.Equal(line, forged) {
			t.Fatal("the forged line is not at the start of the rename record's second line")
		}
		arm(e.dev)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := range before + 1 {
			if _, err := w.Write(pattern(50, byte(10+i))); err != nil {
				t.Fatal(err)
			}
		}
		return e, rewinds
	}
	e, rewinds := run(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(e.dev.Trace(), 2) {
		e, _ := run(p.Arm)
		p.Crash(e.dev)
		e.remount(t)
		got, err := vfs.ReadFile(e.fs, "/victim")
		if err != nil || !bytes.Equal(got, precious) {
			t.Fatalf("crash at %v: /victim holds %d bytes, %v; want its %d: recovery replayed the forged record", p, len(got), err, len(precious))
		}
		points++
	}
	t.Logf("%d crash points", points)
	if got := e.fs.Stats().Rewinds; got != rewinds {
		t.Fatalf("the log rewound %d times, want only the set-up's %d: a two-line record is in the region", got, rewinds)
	}
}

// forgeTruncate is one op-log line that scans as a valid record with
// sequence number seq: a truncate of inode ino to zero, stamped far above
// any journal stamp. Its operation sequence number is the first that puts
// no '/' in the line, so the line fits in one path component.
func forgeTruncate(seq uint32, ino uint64) []byte {
	for op := uint64(1) << 40; ; op++ {
		payload := metaRecord{kind: metaTruncate, seq: op, ino: ino}.appendTo(nil)
		line := make([]byte, sim.CacheLine)
		binary.LittleEndian.PutUint32(line[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(line[4:8], seq)
		binary.LittleEndian.PutUint32(line[8:12], metalog.Checksum(seq, payload))
		copy(line[16:], payload)
		for i := 16 + len(payload); i < len(line); i++ {
			line[i] = 'x'
		}
		if !bytes.ContainsRune(line, '/') {
			return line
		}
	}
}

// TestFailedCommitKeepsTheLog, named for the failure it used to take: a
// strict write, then metadata enough to outgrow a 16-block journal, then
// the write's fsync, an fsync of another file that rewinds the covered
// log, and a write to it. The fsync used to fail at commit after its
// relink popped the overlay, leaving the write on the log alone; now
// credits commit the running transaction before it outgrows the journal,
// every call succeeds, and a crash at any event from the fsync on, taken
// each of the four ways, finds every write that had returned.
func TestFailedCommitKeepsTheLog(t *testing.T) {
	payload := pattern(5000, 3)
	kcfg := ext4dax.Config{JournalBlocks: 16}
	var e *metaEnv
	run := func(arm func(*pmem.Device)) (done []int64) {
		e = newMetaEnv(t, Strict, kcfg, 64<<10)
		fs := e.fs
		f, err := vfs.Create(fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		g, err := vfs.Create(fs, "/g")
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		outgrowJournal(t, fs.kfs)
		arm(e.dev)
		for _, step := range []func() error{
			f.Sync,
			g.Sync,
			func() error { _, err := g.Write([]byte("after")); return err },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
			done = append(done, e.dev.Events())
		}
		if fs.Stats().Rewinds == 0 {
			t.Fatal("the covered log never rewound")
		}
		return done
	}
	run(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(e.dev.Trace(), 2) {
		done := run(p.Arm)
		p.Crash(e.dev)
		returned, _ := slices.BinarySearch(done, p.Ev.Seq)
		e.remount(t)
		f, errF := vfs.ReadFile(e.fs, "/f")
		g, errG := vfs.ReadFile(e.fs, "/g")
		switch {
		case errF != nil || errG != nil:
			t.Fatalf("crash at %v: /f %v, /g %v", p, errF, errG)
		case !bytes.Equal(f, payload):
			t.Fatalf("crash at %v: /f holds %d bytes, not the %d its write returned", p, len(f), len(payload))
		case string(g) != "after" && (returned == 3 || len(g) != 0):
			t.Fatalf("crash at %v: /g = %q after %d steps returned", p, g, returned)
		}
		if err := e.fs.Check(); err != nil {
			t.Fatalf("crash at %v: %v", p, err)
		}
		points++
	}
	t.Logf("%d crash points", points)
}

// TestRewindRacesAppendersAndFsyncs: strict writers append to files of
// their own and fsync them, each fsync trying to rewind the log while the
// others append and relink, and a metadata churner creates and unlinks
// files. Every write returned before the crash must come back.
func TestRewindRacesAppendersAndFsyncs(t *testing.T) {
	const writers, rounds = 4, 60
	e := newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
	fs := e.fs
	var wg sync.WaitGroup
	want := make([][]byte, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/w%d", w)
			f, err := vfs.Create(fs, path)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range rounds {
				p := pattern(64+i, byte(w*rounds+i))
				if _, err := f.Write(p); err != nil {
					t.Error(err)
					return
				}
				want[w] = append(want[w], p...)
				if i%3 == 2 {
					if err := f.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range rounds {
			path := fmt.Sprintf("/m%d", i%4)
			if err := vfs.WriteFile(fs, path, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if err := fs.Unlink(path); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if fs.Stats().Rewinds == 0 {
		t.Fatal("no fsync rewound the log")
	}
	e.recover(t, nil)
	for w := range writers {
		got, err := vfs.ReadFile(e.fs, fmt.Sprintf("/w%d", w))
		if err != nil || !bytes.Equal(got, want[w]) {
			t.Fatalf("/w%d after recovery: %d bytes, %v; want the %d its writes returned", w, len(got), err, len(want[w]))
		}
	}
}
