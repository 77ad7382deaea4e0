package ext4dax

import (
	"fmt"
	"strings"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestCheckCatches: the structural check passes a healthy image, counting
// what it owns, and names each kind of damage an in-place splice could do.
func TestCheckCatches(t *testing.T) {
	_, fs := newFS(t)
	a := sparseFile(t, fs, "/a", InlineExtents+3) // one overflow leaf
	b := sparseFile(t, fs, "/b", 2)
	want := fs.icache[RootIno].blocks + a.in.blocks + 1 + b.in.blocks
	owned, err := fs.Check()
	if err != nil || owned != want {
		t.Fatalf("healthy image: %d blocks owned (%v), want %d", owned, err, want)
	}
	for _, c := range []struct {
		damage func() (undo func())
		want   string
	}{
		{func() func() { // a block dropped from one map is still another's: owned twice
			old := b.in.extents[1]
			b.in.extents[1].Phys = a.in.extents[0].Phys
			return func() { b.in.extents[1] = old }
		}, "owned twice"},
		{func() func() { // an overflow leaf that is also data
			old := b.in.extents[0]
			b.in.extents[0].Phys.Start = a.in.overflow[0]
			return func() { b.in.extents[0] = old }
		}, "owned twice"},
		{func() func() { // an edge record lost by a splice
			old := b.in.extents
			b.in.extents = old[:1]
			return func() { b.in.extents = old }
		}, "counts 2 blocks, its extents hold 1"},
		{func() func() { // a record split and never merged back
			old := a.in.extents[1]
			a.in.extents[1] = ext(a.in.extents[0].LogicalEnd(), a.in.extents[0].Phys.End(), 1)
			return func() { a.in.extents[1] = old }
		}, "adjacent and unmerged"},
		{func() func() { // freed while owned
			e := b.in.extents[0].Phys
			fs.bBmp.Free(pmem.SrcForeground, e)
			return func() { fs.bBmp.MarkAllocated(e) }
		}, "free in the bitmap"},
		{func() func() { // a link dropped with no entry removed
			b.in.nlink++
			return func() { b.in.nlink-- }
		}, "link count 2, the namespace holds 1"},
	} {
		undo := c.damage()
		if _, err := fs.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("damage %q: Check = %v", c.want, err)
		}
		undo()
		if _, err := fs.Check(); err != nil {
			t.Fatalf("after undoing %q: %v", c.want, err)
		}
	}
	// Pending frees — blocks relinked over, marked until the commit — are
	// nobody's, and not an error.
	src, _ := vfs.Create(fs, "/src")
	if err := src.(*File).Preallocate(1, 0); err != nil {
		t.Fatal(err)
	}
	batch := beginRelink(t, fs, b, Move{Src: src.(*File), Len: sim.BlockSize})
	if err := relink1(batch, src.(*File), b, 0, 0, sim.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	batch.End()
	if got, err := fs.Check(); err != nil || got != owned {
		t.Fatalf("with a free pending: %d blocks owned (%v), want %d", got, err, owned)
	}
}

// TestDirectoryRenameMovesDotDot: a directory renamed under another parent
// takes its ".." link along — the old parent loses it, the new one gains
// it, in the rename's own transaction — so the link counts Check compares
// with the namespace hold across the rename, a crash after its commit, and
// a rename back. An unlinked file held open is nobody's entry and is not
// compared (its record keeps the count it was last written with).
func TestDirectoryRenameMovesDotDot(t *testing.T) {
	dev, fs := newFS(t)
	for _, d := range []string{"/a", "/b", "/a/d"} {
		if err := fs.Mkdir(d, 0755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vfs.Create(fs, "/a/d/tmp"); err != nil { // stays open
		t.Fatal(err)
	}
	if err := fs.Unlink("/a/d/tmp"); err != nil {
		t.Fatal(err)
	}
	links := func(fs *FS, when string, a, b uint32) {
		t.Helper()
		ia, _ := fs.Stat("/a")
		ib, _ := fs.Stat("/b")
		if ia.Nlink != a || ib.Nlink != b {
			t.Fatalf("%s: /a has %d links and /b %d, want %d and %d", when, ia.Nlink, ib.Nlink, a, b)
		}
		if _, err := fs.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	links(fs, "before", 3, 2)
	if err := fs.Rename("/a/d", "/b/d"); err != nil {
		t.Fatal(err)
	}
	links(fs, "after the rename", 2, 3)
	fs.CommitMeta()
	if err := dev.Crash(sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Mount(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	links(rec, "after a crash", 2, 3)
	if err := rec.Rename("/b/d", "/a/e"); err != nil {
		t.Fatal(err)
	}
	links(rec, "after the rename back", 3, 2)
}

// TestCheckReadsTheImageBack: the structural check decodes every inode —
// record and leaf chain — from the device and holds it against the cache,
// so one wrong extent record in a leaf is reported, as is any other field
// the two disagree on; put back, the image checks. A leaf the chain
// cannot reach is reported as an unreadable inode.
func TestCheckReadsTheImageBack(t *testing.T) {
	dev, fs := newFS(t)
	f := sparseFile(t, fs, "/f", InlineExtents+LeafExtents+3) // a full leaf and a second one
	rec, leaf := fs.inodeOff(f.in.ino), fs.bBmp.BlockOffset(f.in.overflow[1])
	for _, c := range []struct {
		name string
		off  int64 // the byte flipped
		want string
	}{
		{"a record's physical block in the second leaf", leaf + overflowHeader + 2*extentRecSize + 4,
			fmt.Sprintf("first different at %d", InlineExtents+LeafExtents+2)},
		{"an inline record's logical block", rec + inlineOff + 5*extentRecSize, "first different at 5"},
		{"the second leaf's count", leaf + 9, "reading inode"}, // 3 records become 259
		{"the size", rec + 16, "size"},
		{"the block count", rec + 24, "block count"},
		{"the link count", rec + 8, "link count"},
		{"the watermark", rec + uwmOff, "watermark"},
	} {
		b := make([]byte, 1)
		dev.Peek(b, c.off)
		dev.StoreBuffered(c.off, []byte{b[0] ^ 1}, sim.CatPMMeta)
		if _, err := fs.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s flipped on media: Check = %v, want %q", c.name, err, c.want)
		}
		dev.StoreBuffered(c.off, b, sim.CatPMMeta)
		if _, err := fs.Check(); err != nil {
			t.Fatalf("%s put back: %v", c.name, err)
		}
	}
}
