package ext4dax

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"splitfs/internal/journal"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// fuzzLeaves are the two data blocks FuzzInodeRecord fills with its leaf
// inputs: free on recordImage's device, so nothing else writes them.
var fuzzLeaves = [2]int64{5, 6}

// recordImage is a small committed file system holding one empty file,
// /f, whose inode number it returns.
func recordImage(t *testing.T) (*pmem.Device, *FS, uint64) {
	t.Helper()
	dev := pmem.New(pmem.Config{Size: 512 << 10, Clock: sim.NewClock()})
	fs, err := Mkfs(dev, Config{JournalBlocks: 16, MaxInodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Create(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	fs.CommitMeta()
	for _, blk := range fuzzLeaves {
		if fs.bBmp.First(blk, blk+1, true) == blk {
			t.Fatalf("leaf block %d is in use", blk)
		}
	}
	return dev, fs, f.(*File).in.ino
}

// FuzzInodeRecord: arbitrary bytes as an allocated inode's record, and as
// the two blocks fuzzLeaves a leaf chain can reach, on a small device.
// Mount must come back — no panic, no hang, whatever the chain says —
// and the inode is either refused (readInode errors; Mount treats it as
// free) or loaded as an inode whose record and every leaf re-encode to
// exactly the bytes on the device. The committed corpus holds records
// writeInode leaves (inline only, one leaf, two leaves, a directory, the
// last logical block) and each kind of hostile chain.
func FuzzInodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec, leafA, leafB []byte) {
		dev, fs, ino := recordImage(t)
		plant := func(off int64, p []byte, n int) []byte {
			b := make([]byte, n)
			copy(b, p)
			dev.Persist(off, b, sim.CatPMMeta)
			return b
		}
		rec = plant(fs.inodeOff(ino), rec, inodeSize)
		plant(fs.bBmp.BlockOffset(fuzzLeaves[0]), leafA, sim.BlockSize)
		plant(fs.bBmp.BlockOffset(fuzzLeaves[1]), leafB, sim.BlockSize)

		mounted, _, err := Mount(dev, Config{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		in, err := mounted.readInode(ino)
		if cached := mounted.icache[ino]; (err == nil) != (cached != nil) {
			t.Fatalf("readInode says %v, Mount cached %v", err, cached != nil)
		}
		if err != nil {
			return
		}
		var buf [sim.BlockSize]byte
		in.encode(buf[:inodeSize])
		if !bytes.Equal(buf[:inodeSize], rec) {
			t.Fatalf("the record loads, but re-encodes differently:\nread   %x\nencode %x", rec, buf[:inodeSize])
		}
		for i, blk := range in.overflow {
			want := in.encodeLeaf(buf[:], i)
			got := make([]byte, len(want))
			dev.Peek(got, mounted.bBmp.BlockOffset(blk))
			if !bytes.Equal(got, want) {
				t.Fatalf("leaf %d at block %d loads, but re-encodes differently", i, blk)
			}
		}
	})
}

// fragmented encodes a file inode of n one-block extents — logical 2i, so
// none merge — with its leaves at fuzzLeaves: the record and the first two
// leaves (nil where there is none).
func fragmented(n int) (rec, leafA, leafB []byte) {
	in := &inode{nlink: 1, blocks: int64(n), size: int64(2*n) * sim.BlockSize}
	for i := range n {
		in.extents = append(in.extents, ext(int64(2*i), int64(10+i%20), 1))
	}
	if n > InlineExtents {
		in.overflow = fuzzLeaves[:(n-InlineExtents+LeafExtents-1)/LeafExtents]
	}
	rec = make([]byte, inodeSize)
	in.encode(rec)
	var buf [sim.BlockSize]byte
	if len(in.overflow) > 0 {
		leafA = bytes.Clone(in.encodeLeaf(buf[:], 0))
	}
	if len(in.overflow) > 1 {
		leafB = bytes.Clone(in.encodeLeaf(buf[:], 1))
	}
	return rec, leafA, leafB
}

// TestReadInodeRefusesHostileChains: a record whose leaf chain writeInode
// could not have left — longer than its extents need, cycling, with a
// leaf over capacity, or pointing outside the data region (which used to
// reach pmem's out-of-device panic) — is an error from readInode, and
// Mount, which treats the inode as free, comes back. The chains it does
// leave load as written.
func TestReadInodeRefusesHostileChains(t *testing.T) {
	const two = InlineExtents + LeafExtents + 7 // a full leaf, then seven records
	for _, c := range []struct {
		name   string
		n      int
		damage func(rec, a, b []byte)
		want   string // "" = loads
	}{
		{"inline only", 5, func(rec, a, b []byte) {}, ""},
		{"one leaf", InlineExtents + 20, func(rec, a, b []byte) {}, ""},
		{"two leaves", two, func(rec, a, b []byte) {}, ""},
		{"a leaf behind a record that is not full", 5, func(rec, a, b []byte) { putU64(rec[40:48], uint64(fuzzLeaves[0])) }, "longer than its extents need"},
		{"a leaf after one that is not full", InlineExtents + 20, func(rec, a, b []byte) {
			putU64(a[0:8], uint64(fuzzLeaves[1]))
			putU32(b[8:12], 3)
		}, "longer than its extents need"},
		{"a leaf that cycles to itself", two, func(rec, a, b []byte) { putU64(a[0:8], uint64(fuzzLeaves[0])) }, "cycles"},
		{"a leaf that cycles back", two, func(rec, a, b []byte) {
			putU32(b[8:12], LeafExtents)
			putU64(b[0:8], uint64(fuzzLeaves[0]))
		}, "cycles"},
		{"a leaf over capacity", InlineExtents + 20, func(rec, a, b []byte) { putU32(a[8:12], LeafExtents+1) }, "holds 341 records"},
		{"an empty leaf", InlineExtents + 20, func(rec, a, b []byte) { putU32(a[8:12], 0) }, "holds 0 records"},
		{"a leaf past the device", InlineExtents + 20, func(rec, a, b []byte) { putU64(rec[40:48], 1<<40) }, "outside the data region"},
		{"a leaf at a negative block", two, func(rec, a, b []byte) { putU64(a[0:8], 1<<63) }, "outside the data region"},
		{"extents out of order", two, func(rec, a, b []byte) { putExtent(b[overflowHeader:], ext(0, 10, 1)) }, "out of order"},
	} {
		dev, fs, ino := recordImage(t)
		rec, a, b := fragmented(c.n)
		a = append(a, make([]byte, sim.BlockSize-len(a))...)
		b = append(b, make([]byte, sim.BlockSize-len(b))...)
		c.damage(rec, a, b)
		dev.Persist(fs.inodeOff(ino), rec, sim.CatPMMeta)
		dev.Persist(fs.bBmp.BlockOffset(fuzzLeaves[0]), a, sim.CatPMMeta)
		dev.Persist(fs.bBmp.BlockOffset(fuzzLeaves[1]), b, sim.CatPMMeta)
		mounted, _, err := Mount(dev, Config{})
		if err != nil {
			t.Fatalf("%s: Mount: %v", c.name, err)
		}
		in, err := mounted.readInode(ino)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && len(in.extents) != c.n:
			t.Errorf("%s: %d extents loaded, want %d", c.name, len(in.extents), c.n)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: readInode = %v, want an error saying %q", c.name, err, c.want)
		case c.want != "" && mounted.icache[ino] != nil:
			t.Errorf("%s: Mount loaded the inode", c.name)
		}
	}
}

// TestFileSizeBound: an extent record holds 32-bit logical blocks, so a
// file ends at MaxFileBlocks (16 TiB, ext4's s_maxbytes for 4 KB blocks).
// A write, truncate, preallocation or relink reaching block 2^32 is
// ErrInval and changes nothing: the files' stat, the device's counters,
// the running transaction and the journal are as they were. A sparse file
// holding block 2^32 − 1 round-trips through a crash and Mount. And
// computeLayout, which is pure, refuses a device with 2^32 data blocks.
func TestFileSizeBound(t *testing.T) {
	const last = MaxFileSize - sim.BlockSize // block 2^32 − 1
	dev, fs := newFS(t)
	fh, err := fs.OpenFile("/f", vfs.O_RDWR|vfs.O_CREATE|vfs.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fh.(*File)
	src, _ := vfs.Create(fs, "/src")
	if err := src.(*File).Preallocate(2, 0); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xB1}, sim.BlockSize)
	if _, err := f.WriteAt(data, last); err != nil {
		t.Fatalf("a write of block 2^32 - 1: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	type state struct {
		f, src vfs.FileInfo
		dev    pmem.Stats
		jnl    journal.Stats
		noted  int
	}
	snap := func() state {
		fi, _ := f.Stat()
		si, _ := src.Stat()
		return state{fi, si, dev.Stats(), fs.JournalStats(), fs.noted()}
	}
	before := snap()
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"a write at block 2^32", func() error { _, err := f.WriteAt(data, MaxFileSize); return err }},
		{"a write across it", func() error { _, err := f.WriteAt(data, last+1); return err }},
		{"an append past it", func() error { _, err := f.Write(data[:1]); return err }},
		{"a truncate past it", func() error { return f.Truncate(MaxFileSize + 1) }},
		{"a preallocation past it", func() error { return f.Preallocate(1, 0) }},
		{"a relink to it", func() error { return fs.Relink(src.(*File), f, 0, MaxFileSize, sim.BlockSize, 0) }},
		{"a relink growing the file past it", func() error { return fs.Relink(src.(*File), f, 0, 0, sim.BlockSize, MaxFileSize+1) }},
	} {
		if err := c.op(); !errors.Is(err, vfs.ErrInval) {
			t.Errorf("%s: %v, want ErrInval", c.name, err)
		}
		if after := snap(); after != before {
			t.Errorf("%s changed something:\n%+v\n%+v", c.name, before, after)
		}
	}

	want := slices.Clone(f.in.extents)
	if err := dev.Crash(sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.icache[f.in.ino].extents; !slices.Equal(got, want) {
		t.Fatalf("after the crash /f maps %v, want %v", got, want)
	}
	g, err := rec.OpenFile("/f", vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sim.BlockSize)
	if n, err := g.ReadAt(got, last); n != len(got) || !bytes.Equal(got, data) {
		t.Fatalf("block 2^32 - 1 after the crash: %d bytes, %v", n, err)
	}
	if info, _ := g.Stat(); info.Size != MaxFileSize || info.Blocks != 1 {
		t.Fatalf("/f after the crash: size %d, %d blocks", info.Size, info.Blocks)
	}
	if _, err := rec.Check(); err != nil {
		t.Fatal(err)
	}

	// No device is built: computeLayout is arithmetic on the size.
	for _, size := range []int64{MaxFileSize + MaxFileBlocks/8 + 64<<20, 1 << 50} { // room for 2^32 data blocks, and far more
		if l, err := computeLayout(size, 256, 4096); err == nil {
			t.Errorf("a %d-byte device formats with %d data blocks", size, l.DataBlocks)
		}
	}
	if l, err := computeLayout(MaxFileSize, 256, 4096); err != nil || l.DataBlocks >= MaxFileBlocks {
		t.Errorf("a 16 TiB device: %d data blocks, %v", l.DataBlocks, err)
	}
}
