package splitfs

import (
	"bytes"
	"fmt"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestReplayRejectsDamagedStagedBlock: a strict-mode write entry and the
// staged bytes it names share one fence, so an entry can survive a crash
// whole while its data tore; the entry's sum over the data is what lets
// replayWrite refuse it. Three files each take one logged 4 KB write; one
// bit is flipped, or one 8-byte word (the pmem model's tear unit) zeroed,
// in the middle file's staged block, behind an entry that is itself
// valid. Recovery must refuse exactly that write and replay the other two.
func TestReplayRejectsDamagedStagedBlock(t *testing.T) {
	damages := map[string]func(w []byte){
		"flip-bit":  func(w []byte) { w[6] ^= 0x80 },
		"zero-word": func(w []byte) { clear(w) },
	}
	names := []string{"/a", "/b", "/c"}
	for how, do := range damages {
		for _, at := range []int64{0, 2048, sim.BlockSize - 8} {
			t.Run(fmt.Sprintf("%s@%d", how, at), func(t *testing.T) {
				e := newMetaEnv(t, Strict, ext4dax.Config{}, 256<<10)
				var victim int64 // device offset of /b's staged block
				for i, name := range names {
					f, err := vfs.Create(e.fs, name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(bytes.Repeat([]byte{byte('a' + i)}, sim.BlockSize)); err != nil {
						t.Fatal(err)
					}
					if name == "/b" {
						r := f.(*File).of.staged[0]
						dev, contig, ok := r.sf.m.Translate(r.sfOff, r.length)
						if !ok || contig < r.length {
							t.Fatalf("staged block not mapped in one piece (%d of %d, ok %t)", contig, r.length, ok)
						}
						victim = dev
					}
				}
				word := make([]byte, 8)
				e.dev.ReadAt(word, victim+at, sim.CatPMData)
				do(word)
				e.dev.PersistNT(victim+at, word, sim.CatPMData)

				report := e.recover(t, nil)
				if report.Replayed != 2 || report.Skipped != 1 {
					t.Fatalf("replayed %d and skipped %d write entries, want 2 and 1: %+v", report.Replayed, report.Skipped, report)
				}
				for i, name := range names {
					got, err := vfs.ReadFile(e.fs, name)
					if err != nil {
						t.Fatal(err)
					}
					want := bytes.Repeat([]byte{byte('a' + i)}, sim.BlockSize)
					if name == "/b" {
						want = nil // created (its record was redone), never written
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s holds %d bytes (%q...), want %d", name, len(got), got[:min(len(got), 4)], len(want))
					}
				}
			})
		}
	}
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
