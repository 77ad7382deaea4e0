package splitfs

import (
	"bytes"
	"slices"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestStrictEntryNeverOutlivesItsData crashes three strict appends — a
// block, 100 bytes and 6 000 bytes across a block boundary — at every
// persistence event they issue, with the unfenced lines reverting whole,
// torn word by word under tearSeeds seeds, or a store in flight landing
// whole, and recovers. The file must read
// exactly as before the append in flight or after it, and the image must
// pass FS.Check. A write entry carries no checksum over its data, so this
// holds only because the data is fenced before the entry is stored: stored
// under one fence, a torn crash can keep the entry line whole and lose
// data words, and replay copies the torn data into the file.
func TestStrictEntryNeverOutlivesItsData(t *testing.T) {
	const tearSeeds = 48
	appends := [][]byte{pattern(sim.BlockSize, 1), pattern(100, 2), pattern(6000, 3)}
	// run makes the file, arms the device and appends; starts[i] is the
	// first event of append i, starts[3] one past the last.
	run := func(arm func(*pmem.Device)) (e *metaEnv, starts []int64) {
		e = newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
		f, err := vfs.Create(e.fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		arm(e.dev)
		for _, p := range appends {
			starts = append(starts, e.dev.Events()+1)
			if _, err := f.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		return e, append(starts, e.dev.Events()+1)
	}
	ref, starts := run(func(dev *pmem.Device) { dev.SetTracing(true) })
	points := 0
	for p := range pmem.CrashPoints(ref.dev.Trace(), tearSeeds) {
		n, _ := slices.BinarySearch(starts, p.Ev.Seq+1)
		i := n - 1 // the append in flight
		before, after := bytes.Join(appends[:i], nil), bytes.Join(appends[:i+1], nil)
		e, _ := run(p.Arm)
		if !e.dev.CrashFired() {
			t.Fatalf("%v never came", p)
		}
		p.Crash(e.dev)
		e.remount(t)
		got, err := vfs.ReadFile(e.fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, before) && !bytes.Equal(got, after) {
			t.Fatalf("append %d, crash at %v: /f holds %d bytes, neither the %d before the append nor the %d after it",
				i, p, len(got), len(before), len(after))
		}
		if err := e.fs.Check(); err != nil {
			t.Fatalf("append %d, crash at %v: %v", i, p, err)
		}
		points++
	}
	t.Logf("%d crash points", points)
}

// TestStrictAppendAllocations: a strict-mode 4 KB append (File.Write →
// appendLog) allocates what it did when the op log's checksum was an
// inlined FNV-1a loop. sim.CRC32C makes what it sums escape; metalog.Append
// therefore sums its own copy of the entry, which is on the heap anyway,
// and the 41-byte entry encWriteEntry builds stays on appendLog's caller's
// stack (DESIGN.md, "Checksums").
func TestStrictAppendAllocations(t *testing.T) {
	_, fs := newEnv(t, Strict)
	f, err := vfs.Create(fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{7}, sim.BlockSize)
	write := func() {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	write() // reserves the append chunk
	// Measured at the parent of the change that made the checksum CRC-32C:
	// 2 there, 2 after it, 3 with the sum taken over appendLog's argument;
	// 0 since the op log's record image is the log's own scratch.
	const atParent = 2
	if allocs := testing.AllocsPerRun(200, write); allocs > 0 {
		t.Fatalf("a strict 4 KB append allocates %.0f times, want 0 (%d before the log kept its record scratch)", allocs, atParent)
	}
}
