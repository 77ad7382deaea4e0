package ext4dax

import (
	"strings"
	"testing"

	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// TestCheckCatches: the structural check passes a healthy image, counting
// what it owns, and names each kind of damage an in-place splice could do.
func TestCheckCatches(t *testing.T) {
	_, fs := newFS(t)
	a := sparseFile(t, fs, "/a", inlineExtents+3) // one overflow leaf
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
			fs.bBmp.Free(e)
			return func() { fs.bBmp.MarkAllocated(e) }
		}, "free in the bitmap"},
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
	batch := fs.BeginBatch()
	if err := batch.Relink(src.(*File), b, 0, 0, sim.BlockSize, 0); err != nil {
		t.Fatal(err)
	}
	batch.End()
	if got, err := fs.Check(); err != nil || got != owned {
		t.Fatalf("with a free pending: %d blocks owned (%v), want %d", got, err, owned)
	}
}
