package splitfs

import (
	"bytes"
	"runtime"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// A strict-mode overwrite loop shaped like splitperf's served-mix — random
// 4 KB pwrites over a 4 MB file, an fsync every eighth — stages every
// write in fresh staging blocks and relinks them in, freeing the blocks
// they replace. The device's backing must follow what the file system
// holds, not every block the loop ever touched.
func TestRelinkLoopBackingFollowsLiveBlocks(t *testing.T) {
	const fileBlocks = 1024
	dev, fs := newEnv(t, Strict)
	backed0 := dev.BackedBytes()
	f, err := vfs.Create(fs, "/wr")
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x77}, sim.BlockSize)
	for b := range fileBlocks {
		if _, err := f.WriteAt(block, int64(b)*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for i := range 16 * fileBlocks {
		if _, err := f.WriteAt(block, int64(rng.Intn(fileBlocks))*sim.BlockSize); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	touched := int64(0) // blocks some store reached
	for off := int64(0); off < dev.Size(); off += sim.BlockSize {
		if dev.Wear(off) > 0 {
			touched++
		}
	}
	// What the loop can leave written beyond newEnv's file system: the
	// file, one fsync's staged blocks (or the blocks its relink freed,
	// still in their grace period), the 128-block journal and the 1 MB
	// op log.
	held := int64(fileBlocks+8+128)*sim.BlockSize + 1<<20
	grown := dev.BackedBytes() - backed0
	t.Logf("backing grew %d KB, bound %d KB; the loop touched %d KB", grown>>10, held>>10, touched*sim.BlockSize>>10)
	if grown > held {
		t.Fatalf("backing grew %d KB, more than the %d KB the file system can hold written", grown>>10, held>>10)
	}
	if touched*sim.BlockSize < 4*grown {
		t.Fatalf("the loop touched %d KB, not enough beyond the %d KB backed to tell", touched*sim.BlockSize>>10, grown>>10)
	}
}

// A steady-state strict 4 KB append stages into a block no store reached
// since it was last freed, and takes that block's frame from the device's
// free list: with freed blocks discarded, it allocates no host memory for
// the frame. From a fresh slab it would cost 4 KB an append. The op log's
// region, zeroed at format, backs its frames only as its records reach
// them, so those are counted apart.
func TestStrictAppendTakesFreedFrames(t *testing.T) {
	dev, fs := newEnv(t, Strict)
	if err := vfs.WriteFile(fs, "/old", bytes.Repeat([]byte{1}, 4<<20)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/old"); err != nil {
		t.Fatal(err)
	}
	for range 2 { // commit the free, then end its grace period
		fs.KFS().CommitMeta()
	}
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
	// logFrames is the op log frames its records reached: they follow the
	// region's first line, its tail slot.
	logFrames := func() int64 {
		return (fs.olog.Used() + sim.CacheLine + sim.BlockSize - 1) / sim.BlockSize
	}
	const runs = 200
	backed, logged := dev.BackedBytes(), logFrames()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		write()
	}
	runtime.ReadMemStats(&after)
	logGrown := (logFrames() - logged) * sim.BlockSize
	if got := dev.BackedBytes() - backed - logGrown; got != runs*sim.BlockSize {
		t.Fatalf("backing grew %d bytes over %d appends beside the op log's %d, want one frame each", got, runs, logGrown)
	}
	// 80 B when the frame is recycled (TestStrictAppendAllocations' two
	// allocations); 5.3 KB with discards turned off.
	if perAppend := (after.TotalAlloc - before.TotalAlloc) / runs; perAppend >= sim.BlockSize/8 {
		t.Fatalf("a steady-state strict 4 KB append allocates %d B: its frame did not come from the free list", perAppend)
	}
}
