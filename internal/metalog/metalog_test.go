package metalog

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
)

func newLog(t testing.TB, size int64) (*pmem.Device, *Log) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	return dev, New(dev, 0, size, sim.CatOpLog)
}

func TestAppendAndReplay(t *testing.T) {
	dev, l := newLog(t, 1<<16)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("c"), 100)}
	for _, r := range recs {
		if err := l.Append(r, SingleFence); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	_, got := Load(dev, 0, 1<<16, sim.CatOpLog)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

func TestUnfencedRecordLostOrDetected(t *testing.T) {
	dev, l := newLog(t, 1<<16)
	l.Append([]byte("durable"), SingleFence)
	l.Append([]byte("unfenced"), NoFence)
	// Torn crash: random 8-byte words of the unfenced record persist.
	if err := dev.Crash(sim.NewRNG(7)); err != nil {
		t.Fatal(err)
	}
	_, got := Load(dev, 0, 1<<16, sim.CatOpLog)
	// The fenced record must be there; the torn one must either be
	// entirely absent or, if all its words happened to persist, intact.
	if len(got) == 0 || !bytes.Equal(got[0], []byte("durable")) {
		t.Fatalf("durable record lost: %q", got)
	}
	if len(got) == 2 && !bytes.Equal(got[1], []byte("unfenced")) {
		t.Fatalf("torn record passed checksum: %q", got[1])
	}
	if len(got) > 2 {
		t.Fatalf("phantom records: %d", len(got))
	}
}

func TestSingleFenceCostsOneFence(t *testing.T) {
	dev, l := newLog(t, 1<<16)
	fences := dev.Stats().Fences
	l.Append(make([]byte, 40), SingleFence) // one cache line
	if got := dev.Stats().Fences - fences; got != 1 {
		t.Fatalf("SingleFence used %d fences, want 1", got)
	}
	// NOVA-style: entry fence + tail fence.
	fences = dev.Stats().Fences
	l.Append(make([]byte, 40), EntryPlusTail)
	if got := dev.Stats().Fences - fences; got != 2 {
		t.Fatalf("EntryPlusTail used %d fences, want 2", got)
	}
}

func TestCommonCaseRecordIsOneCacheLine(t *testing.T) {
	if RecordLen(48) != sim.CacheLine {
		t.Fatalf("48B payload record = %d bytes, want %d", RecordLen(48), sim.CacheLine)
	}
	if RecordLen(49) != 2*sim.CacheLine {
		t.Fatalf("49B payload record = %d bytes", RecordLen(49))
	}
}

func TestLogFullAndReset(t *testing.T) {
	_, l := newLog(t, 1024) // small: (1024-64)/64 = 15 one-line records
	n := 0
	for {
		if err := l.Append([]byte("x"), NoFence); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	if n != 15 {
		t.Fatalf("fit %d records, want 15", n)
	}
	l.Reset()
	if l.Used() != 0 || l.Entries() != 0 {
		t.Fatal("Reset did not clear the log")
	}
	if err := l.Append([]byte("fresh"), SingleFence); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsOldRecords(t *testing.T) {
	dev, l := newLog(t, 1<<12)
	l.Append([]byte("old"), SingleFence)
	l.Reset()
	l.Append([]byte("new"), SingleFence)
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	_, got := Load(dev, 0, 1<<12, sim.CatOpLog)
	if len(got) != 1 || string(got[0]) != "new" {
		t.Fatalf("after reset = %q", got)
	}
}

func TestReplayProperty(t *testing.T) {
	// Any sequence of fenced appends replays exactly.
	f := func(seed uint64, count uint8) bool {
		dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
		l := New(dev, 0, 1<<18, sim.CatOpLog)
		rng := sim.NewRNG(seed)
		n := int(count%50) + 1
		var want [][]byte
		for i := 0; i < n; i++ {
			rec := make([]byte, rng.Intn(120)+1)
			for j := range rec {
				rec[j] = byte(rng.Uint64())
			}
			if err := l.Append(rec, SingleFence); err != nil {
				return false
			}
			want = append(want, rec)
		}
		if err := dev.Crash(nil); err != nil {
			return false
		}
		_, got := Load(dev, 0, 1<<18, sim.CatOpLog)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSaveLoad(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	s := NewSnapshot(dev, 0, 4096, sim.CatPMMeta)
	if got := s.LoadState(); got != nil {
		t.Fatalf("empty snapshot returned %q", got)
	}
	if err := s.Save([]byte("state-v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("state-v2")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	if got := string(s.LoadState()); got != "state-v2" {
		t.Fatalf("LoadState = %q, want state-v2", got)
	}
}

func TestSnapshotCrashMidSaveKeepsPrevious(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	s := NewSnapshot(dev, 0, 4096, sim.CatPMMeta)
	s.Save([]byte("good"))
	// Simulate a torn second save: write the slot but crash before the
	// selector flip. We approximate by writing garbage into the inactive
	// slot without updating the header.
	dev.PersistNT(sim.CacheLine+4096, []byte("garbage-no-flip"), sim.CatPMMeta)
	if err := dev.Crash(nil); err != nil {
		t.Fatal(err)
	}
	if got := string(s.LoadState()); got != "good" {
		t.Fatalf("LoadState = %q, want good", got)
	}
}

func TestSnapshotTooLarge(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	s := NewSnapshot(dev, 0, 128, sim.CatPMMeta)
	if err := s.Save(make([]byte, 200)); err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}
