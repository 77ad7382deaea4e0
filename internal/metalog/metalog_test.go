package metalog

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"splitfs/internal/pmem"
	"splitfs/internal/race"
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

// TestResetOfFullLogAllocatesNothing: a checkpoint's Reset zeroes a log
// whose records back every frame of its region, with no page to spare in
// the device's pool — the first checkpoint of a run. Each frame's page
// becomes its lines' undo page, so the reset allocates nothing; copying
// the durable lines into fresh undo pages allocated the log's size.
//
// TotalAlloc is process-wide, so a window can also count what the runtime
// or the testing package allocates meanwhile. The cycle runs on a fresh
// device several times and the least any window counted must be exactly
// 0: background allocation cannot land in every window, and a Reset that
// allocates does so in every one.
func TestResetOfFullLogAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const size, atParent, samples = 1 << 20, 0.75, 16
	least, backed := uint64(math.MaxUint64), int64(0)
	for range samples {
		dev := pmem.New(pmem.Config{Size: 4 * size, Clock: sim.NewClock(), TrackPersistence: true})
		// The pool's free list has held as many pages once, and the shards'
		// pending lists as many frames (New lists every frame of the
		// region), so the growth of neither is counted: the fill takes the
		// discarded pages back.
		dev.PersistNT(size, bytes.Repeat([]byte{0xa5}, size), sim.CatPMData)
		dev.Discard(size, size)
		l := New(dev, 0, size, sim.CatOpLog)
		payload := bytes.Repeat([]byte{0x5a}, sim.BlockSize-headerSize)
		for l.Append(payload, SingleFence) == nil {
		}
		if got := dev.BackedBytes(); got != size {
			t.Fatalf("test premise: the full log backs %d bytes of frames, want %d", got, size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.Reset()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		backed = max(backed, dev.BackedBytes())
	}
	if least != 0 {
		t.Fatalf("Reset of a full %d KB log allocates at least %d B in each of %d runs, want 0 (%.2f MB at the parent)",
			size>>10, least, samples, atParent)
	}
	if backed != 0 {
		t.Fatalf("a reset log backs %d bytes of frames, want 0", backed)
	}
	t.Logf("Reset of a full %d KB log allocates 0 B in its quietest of %d runs (parent %.2f MB)", size>>10, samples, atParent)
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

// TestNoRecordOutlivesReset: a checkpoint's Reset zeroes the log, and its
// caller then appends as to an empty one. Crash at every persistence event
// from the first zeroing store through the fence of the first record after
// it, the unfenced lines reverting whole or torn word by word, and Load
// finds a prefix of the records before the checkpoint while Reset runs, and
// none of them once it has returned: the new record, or nothing. Reset must
// therefore fence its zeroing before it returns; a crash before the next
// fence would otherwise bring checkpointed records back to be replayed.
func TestNoRecordOutlivesReset(t *testing.T) {
	const size = 4 * sim.BlockSize
	old := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("c"), 100)}
	run := func(arm func(*pmem.Device)) (dev *pmem.Device, reset int64) {
		dev, l := newLog(t, size)
		for _, r := range old {
			if err := l.Append(r, SingleFence); err != nil {
				t.Fatal(err)
			}
		}
		arm(dev)
		l.Reset()
		reset = dev.Events()
		if err := l.Append([]byte("new"), SingleFence); err != nil {
			t.Fatal(err)
		}
		return dev, reset
	}
	ref, reset := run(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.Trace(), 2) {
		dev, _ := run(p.Arm)
		p.Crash(dev)
		_, got := Load(dev, 0, size, sim.CatOpLog)
		switch {
		case p.Ev.Seq <= reset:
			if len(got) > len(old) || !slices.EqualFunc(got, old[:len(got)], bytes.Equal) {
				t.Fatalf("crash at %v inside Reset: Load = %q, want a prefix of %q", p, got, old)
			}
		case len(got) > 1 || len(got) == 1 && string(got[0]) != "new":
			t.Fatalf("crash at %v after Reset: Load = %q, want nothing or the new record", p, got)
		}
		points++
	}
	t.Logf("%d crash points", points)
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

// TestSnapshotSaveCrashAtEveryEvent crashes at every persistence event of
// a Save over an earlier one, each crash taken four ways: the unfenced
// lines revert whole, or tear word by word under two seeds, or the store in
// flight lands whole and nothing else unfenced does. LoadState returns the
// earlier state or the new one, whole. The header flip is Save's last
// store, so the slot must be fenced before it: a flip that lands ahead of
// the slot's words selects a slot holding neither state.
func TestSnapshotSaveCrashAtEveryEvent(t *testing.T) {
	const before, after = "state-v1", "state-v2, longer"
	save := func(arm func(*pmem.Device)) (*pmem.Device, *Snapshot) {
		dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
		s := NewSnapshot(dev, 0, 4096, sim.CatPMMeta)
		if err := s.Save([]byte(before)); err != nil {
			t.Fatal(err)
		}
		arm(dev)
		if err := s.Save([]byte(after)); err != nil {
			t.Fatal(err)
		}
		return dev, s
	}
	ref, _ := save(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.Trace(), 2) {
		dev, s := save(p.Arm)
		p.Crash(dev)
		if got := string(s.LoadState()); got != before && got != after {
			t.Fatalf("crash at %v: LoadState = %q, want %q or %q", p, got, before, after)
		}
		points++
	}
	t.Logf("%d crash points", points)
}

func TestSnapshotTooLarge(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20, Clock: sim.NewClock(), TrackPersistence: true})
	s := NewSnapshot(dev, 0, 128, sim.CatPMMeta)
	if err := s.Save(make([]byte, 200)); err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}

// TestLoadRejectsDamagedRecord: a flipped bit or a zeroed 8-byte word
// (the unit the pmem model tears at) anywhere in a record — its header or
// its payload, first line or last — ends the log at that record: Load
// returns exactly the records before it, and appends continue from there.
func TestLoadRejectsDamagedRecord(t *testing.T) {
	recs := [][]byte{
		bytes.Repeat([]byte{0xA1}, 41),  // the op log's write entry: one line
		bytes.Repeat([]byte{0xB2}, 150), // three lines
		bytes.Repeat([]byte{0xC3}, 48),  // exactly one line
		bytes.Repeat([]byte{0xD4}, 7),
	}
	build := func() *pmem.Device {
		dev, l := newLog(t, 1<<16)
		for _, r := range recs {
			if err := l.Append(r, SingleFence); err != nil {
				t.Fatal(err)
			}
		}
		return dev
	}
	damages := map[string]func(w []byte){
		"flip-bit":  func(w []byte) { w[1] ^= 0x04 },
		"zero-word": func(w []byte) { clear(w) },
	}
	start := int64(tailSlot)
	for victim, rec := range recs {
		// Word offsets within the record: length|seq, checksum, then the
		// payload's first and last whole words.
		words := map[string]int64{"length+seq": 0, "checksum": 8, "payload head": headerSize}
		if len(rec) >= 16 {
			words["payload tail"] = headerSize + int64(len(rec)-8)/8*8
		}
		for where, off := range words {
			for how, do := range damages {
				dev := build()
				word := make([]byte, 8)
				dev.ReadAt(word, start+off, sim.CatOpLog)
				was := bytes.Clone(word)
				do(word)
				if bytes.Equal(word, was) {
					t.Fatalf("record %d, %s, %s: the damage changed nothing", victim, where, how)
				}
				dev.PersistNT(start+off, word, sim.CatOpLog)
				l, got := Load(dev, 0, 1<<16, sim.CatOpLog)
				if len(got) != victim {
					t.Fatalf("record %d, %s, %s: Load kept %d records, want %d", victim, where, how, len(got), victim)
				}
				for i := range got {
					if !bytes.Equal(got[i], recs[i]) {
						t.Fatalf("record %d, %s, %s: surviving record %d changed", victim, where, how, i)
					}
				}
				if l.Entries() != victim {
					t.Fatalf("record %d, %s, %s: log positioned after %d entries, want %d", victim, where, how, l.Entries(), victim)
				}
			}
		}
		start += RecordLen(len(rec))
	}
}

// TestChecksumNeverZero: zero in a header's checksum field means
// "unwritten", so no payload may sum to it — including the empty payload
// under seed 0, whose CRC-32C is 0.
func TestChecksumNeverZero(t *testing.T) {
	if got := Checksum(0, nil); got == 0 {
		t.Fatal("Checksum(0, nil) = 0")
	}
	if Checksum(1, []byte("x")) == Checksum(2, []byte("x")) {
		t.Fatal("a record's sequence number does not reach its checksum")
	}
}

// appendAll appends each record with one fence.
func appendAll(t testing.TB, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r), SingleFence); err != nil {
			t.Fatal(err)
		}
	}
}

// loaded is what Load finds in the region, as strings.
func loaded(dev *pmem.Device, size int64) []string {
	_, got := Load(dev, 0, size, sim.CatOpLog)
	out := make([]string, len(got))
	for i, r := range got {
		out[i] = string(r)
	}
	return out
}

// TestRewindEndsTheScanAtAnEarlierLap: laps that shrink leave the records
// of longer ones past their end; each carries a lower sequence number
// than the scan expects there, so Load returns the last lap alone, and the
// log it returns continues it.
func TestRewindEndsTheScanAtAnEarlierLap(t *testing.T) {
	const size = 4 * sim.BlockSize
	dev, l := newLog(t, size)
	laps := [][]string{{"a1", "a2", "a3", "a4", "a5"}, {"b1", "b2", "b3"}, {"c1"}}
	for i, lap := range laps {
		if i > 0 && !l.Rewind() {
			t.Fatalf("lap %d: Rewind refused a log of one-line records", i)
		}
		appendAll(t, l, lap...)
		if l.Entries() != len(lap) || l.Used() != int64(len(lap))*sim.CacheLine {
			t.Fatalf("lap %d: %d entries in %d bytes, want %d in %d", i, l.Entries(), l.Used(), len(lap), len(lap)*sim.CacheLine)
		}
		if got := loaded(dev, size); !slices.Equal(got, lap) {
			t.Fatalf("lap %d: Load = %q, want %q", i, got, lap)
		}
	}
	l2, _ := Load(dev, 0, size, sim.CatOpLog)
	appendAll(t, l2, "c2")
	if got, want := loaded(dev, size), []string{"c1", "c2"}; !slices.Equal(got, want) {
		t.Fatalf("after an append to the loaded log: Load = %q, want %q", got, want)
	}
}

// TestRewindRefusesAfterALongRecord: once a record longer than a line is
// in the region, a rewound scan could stop inside it and read its payload
// as a header, so Rewind refuses until Reset zeroes the region; a loaded
// log cannot tell, and refuses too.
func TestRewindRefusesAfterALongRecord(t *testing.T) {
	const size = 4 * sim.BlockSize
	dev, l := newLog(t, size)
	appendAll(t, l, "short", strings.Repeat("long", 20), "short")
	if l.Rewind() {
		t.Fatal("Rewind took a region that holds a two-line record")
	}
	if l.Entries() != 3 || l.Used() != 4*sim.CacheLine {
		t.Fatalf("a refused Rewind moved the log: %d entries in %d bytes", l.Entries(), l.Used())
	}
	if l2, _ := Load(dev, 0, size, sim.CatOpLog); l2.Rewind() {
		t.Fatal("Rewind took a loaded log")
	}
	l.Reset()
	appendAll(t, l, "short")
	if !l.Rewind() {
		t.Fatal("Rewind refused a region zeroed since its long record")
	}
}

// TestRewindNeverWrapsTheSequence: a record an early lap left at slot j is
// revived by a lap whose scan expects its sequence number at j — which a
// sequence that wrapped past 2^32 brings back. A Rewind that could wrap
// zeroes the region instead.
func TestRewindNeverWrapsTheSequence(t *testing.T) {
	const size = 4 * sim.BlockSize
	dev, l := newLog(t, size)
	appendAll(t, l, "stale1", "stale2", "stale3", "stale4", "stale5")
	l.seq, l.lap = math.MaxUint32, math.MaxUint32 // as if 2^32 records of one-record laps had gone by since
	for _, r := range []string{"a", "b", "c"} {
		if !l.Rewind() {
			t.Fatal("Rewind refused a log of one-line records")
		}
		appendAll(t, l, r)
	}
	if got, want := loaded(dev, size), []string{"c"}; !slices.Equal(got, want) {
		t.Fatalf("Load = %q, want %q: a lap that wrapped the sequence revived an earlier lap's records", got, want)
	}
}

// TestRewoundLogCrashAtEveryEvent crashes the appends of a lap that
// rewound over a longer one at every persistence event, unfenced lines
// reverting whole and torn word by word. Load finds a prefix of the new
// lap, or — while its first record is not there yet — the old lap whole:
// never one of the old lap's records after a new one.
func TestRewoundLogCrashAtEveryEvent(t *testing.T) {
	const size = 4 * sim.BlockSize
	old, lap := []string{"a1", "a2", "a3", "a4", "a5", "a6"}, []string{"b1", "b2", "b3"}
	run := func(arm func(*pmem.Device)) *pmem.Device {
		dev, l := newLog(t, size)
		appendAll(t, l, old...)
		if !l.Rewind() {
			t.Fatal("Rewind refused a log of one-line records")
		}
		arm(dev)
		appendAll(t, l, lap...)
		return dev
	}
	ref := run(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.Trace(), 7) {
		dev := run(p.Arm)
		p.Crash(dev)
		got := loaded(dev, size)
		if !slices.Equal(got, old) && (len(got) > len(lap) || !slices.Equal(got, lap[:len(got)])) {
			t.Fatalf("crash at %v: Load = %q, want a prefix of %q or all of %q", p, got, lap, old)
		}
		points++
	}
	t.Logf("%d crash points", points)
}
