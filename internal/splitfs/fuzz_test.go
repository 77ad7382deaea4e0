package splitfs

import (
	"bytes"
	"testing"

	"splitfs/internal/ext4dax"
	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// Op encoding of FuzzRelinkModel: five bytes per op — an opcode whose low
// two bits select the op (bit 2 of a write's opcode makes it an append),
// then two big-endian 16-bit operands x and y. A sequence ends when the
// input does, or after relinkFuzzMaxOps ops.
const (
	relinkFuzzWrite = iota
	relinkFuzzSync
	relinkFuzzTruncate
	relinkFuzzReopen

	relinkFuzzAppend = 4 // opcode flag: write at EOF

	relinkFuzzMaxFile  = 48 << 10 // file sizes stay below this
	relinkFuzzMaxWrite = 9000     // a write is 1..9000 bytes
	relinkFuzzMaxOps   = 64
)

func relinkFuzzOp(op byte, x, y int) []byte {
	return []byte{op, byte(x >> 8), byte(x), byte(y >> 8), byte(y)}
}

// Seed builders: the named seeds below read as the op sequences they are.
func fzWrite(off, n int) []byte { return relinkFuzzOp(relinkFuzzWrite, off, n-1) }
func fzAppend(n int) []byte     { return relinkFuzzOp(relinkFuzzWrite|relinkFuzzAppend, 0, n-1) }
func fzSync() []byte            { return relinkFuzzOp(relinkFuzzSync, 0, 0) }
func fzTruncate(size int) []byte {
	return relinkFuzzOp(relinkFuzzTruncate, size, 0)
}
func fzReopen() []byte { return relinkFuzzOp(relinkFuzzReopen, 0, 0) }

func fzSeq(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// FuzzRelinkModel runs a random WriteAt / Sync / Truncate / close+reopen
// sequence, decoded from the fuzz input, on splitfs-POSIX and
// splitfs-strict against a []byte model, and requires after every op the
// model's size and bytes — so that bytes a file grows over read as zeros,
// whatever stood in the block the relink moved in or the truncate left —
// and at every commit that K-Split alone serves the same bytes and that
// no block leaked: free blocks plus the blocks every inode holds stay
// what they were at the start.
func FuzzRelinkModel(f *testing.F) {
	// A 2 KB file, fsynced (its only block moves whole), grown to 4 KB.
	f.Add(fzSeq(fzAppend(2048), fzSync(), fzTruncate(4096), fzSync()))
	// WAL: small appends, each fsynced, across a block boundary.
	f.Add(fzSeq(fzAppend(1500), fzSync(), fzAppend(1500), fzSync(), fzAppend(1500), fzSync(),
		fzAppend(1500), fzSync(), fzReopen(), fzAppend(100), fzSync()))
	// Overwrite that also extends: in strict mode the old last block is
	// replaced by the moved one and freed by the same transaction.
	f.Add(fzSeq(fzAppend(100), fzSync(), fzWrite(0, 200), fzSync(), fzWrite(50, 5000), fzSync()))
	// Shrink to mid-block, then grow over the stale bytes three ways.
	f.Add(fzSeq(fzAppend(6000), fzSync(), fzTruncate(1000), fzTruncate(3000), fzSync(),
		fzTruncate(500), fzWrite(2000, 100), fzSync(), fzTruncate(200), fzAppend(5000), fzSync()))
	// Two pieces around a moved partial block, neither touching it: the
	// first one's relink already grows the file over that block's slack.
	f.Add(fzSeq(fzAppend(6000), fzSync(), fzWrite(0, 4096), fzWrite(12288, 10), fzSync()))
	// Unsynced appends shadowed by overwrites, then one relink at close.
	f.Add(fzSeq(fzAppend(4096), fzAppend(4096), fzAppend(700), fzWrite(4000, 300), fzWrite(8000, 1200),
		fzReopen(), fzTruncate(0), fzAppend(4097), fzReopen()))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, mode := range []Mode{POSIX, Strict} {
			runRelinkModel(t, mode, in)
		}
	})
}

func runRelinkModel(t *testing.T, mode Mode, in []byte) {
	_, fs := newSmallEnv(t, mode)
	kfs := fs.kfs
	// Staging blocks are recycled ones in real life: start the first
	// megabyte of them, more than most sequences stage, non-zero.
	fs.staging.ready[0].m.StoreNT(pmem.SrcForeground, bytes.Repeat([]byte{0xFF}, 1<<20), 0)
	f, err := fs.OpenFile("/m", vfs.O_RDWR|vfs.O_CREATE, 0644)
	if err != nil {
		t.Fatal(err)
	}
	kfs.CommitMeta()
	total := kfs.FreeBlocks() + heldBlocks(t, kfs, "/")
	var model []byte

	// committed checks what must hold once a relink point has committed.
	committed := func(step int, what string) {
		t.Helper()
		// Frees of a staging file reclaimed after the commit are pending
		// until the next one.
		kfs.CommitMeta()
		held := heldBlocks(t, kfs, "/")
		if got := kfs.FreeBlocks() + held; got != total {
			t.Fatalf("%s step %d (%s): %d blocks free or held, %d at the start", mode, step, what, got, total)
		}
		// K-Split's own walk: every map well-formed, no block owned twice
		// or free in the bitmap — and none owned by an unreachable inode.
		if owned, err := kfs.Check(); err != nil || owned != held {
			t.Fatalf("%s step %d (%s): structural check: %v; %d blocks owned, %d reachable from /", mode, step, what, err, owned, held)
		}
		got, err := vfs.ReadFile(kfs, "/m")
		if err != nil || !bytes.Equal(got, model) {
			t.Fatalf("%s step %d (%s): K-Split holds %d bytes (%v), model %d; first difference at %d",
				mode, step, what, len(got), err, len(model), firstDiff(got, model))
		}
		if i := staleSlack(t, kfs, "/m"); i >= 0 {
			t.Fatalf("%s step %d (%s): byte %d, past EOF %d in the last block, is not zero on media",
				mode, step, what, i, len(model))
		}
	}

	for step := 0; len(in) >= 5 && step < relinkFuzzMaxOps; step++ {
		op, x, y := in[0], int(in[1])<<8|int(in[2]), int(in[3])<<8|int(in[4])
		in = in[5:]
		what := "write"
		switch op & 3 {
		case relinkFuzzWrite:
			off := x % relinkFuzzMaxFile
			if op&relinkFuzzAppend != 0 {
				off = len(model)
			}
			n := min(1+y%relinkFuzzMaxWrite, relinkFuzzMaxFile-off)
			if n <= 0 {
				continue
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(1 + (step*31+i*7)%255) // never zero
			}
			if got, err := f.WriteAt(data, int64(off)); got != n || err != nil {
				t.Fatalf("%s step %d: WriteAt(%d bytes at %d) = %d, %v", mode, step, n, off, got, err)
			}
			if off+n > len(model) {
				model = append(model, make([]byte, off+n-len(model))...)
			}
			copy(model[off:], data)
		case relinkFuzzSync:
			what = "sync"
			if err := f.Sync(); err != nil {
				t.Fatalf("%s step %d: Sync: %v", mode, step, err)
			}
		case relinkFuzzTruncate:
			what = "truncate"
			size := x % (relinkFuzzMaxFile + 1)
			if err := f.Truncate(int64(size)); err != nil {
				t.Fatalf("%s step %d: Truncate(%d): %v", mode, step, size, err)
			}
			if size > len(model) {
				model = append(model, make([]byte, size-len(model))...)
			}
			model = model[:size]
		case relinkFuzzReopen:
			what = "reopen"
			if err := f.Close(); err != nil {
				t.Fatalf("%s step %d: Close: %v", mode, step, err)
			}
			if f, err = fs.OpenFile("/m", vfs.O_RDWR, 0); err != nil {
				t.Fatalf("%s step %d: reopen: %v", mode, step, err)
			}
		}
		if info, err := f.Stat(); err != nil || info.Size != int64(len(model)) {
			t.Fatalf("%s step %d (%s): size %d (%v), model %d", mode, step, what, info.Size, err, len(model))
		}
		got := make([]byte, len(model)+1)
		if n, _ := f.ReadAt(got, 0); n != len(model) || !bytes.Equal(got[:n], model) {
			t.Fatalf("%s step %d (%s): read %d bytes, model %d; first difference at %d",
				mode, step, what, n, len(model), firstDiff(got[:n], model))
		}
		if what != "write" {
			committed(step, what)
		}
	}
	// Whatever the sequence left past EOF in the last block reads as zeros
	// once the file grows over it.
	grown := (len(model)/sim.BlockSize + 2) * sim.BlockSize
	if err := f.Truncate(int64(grown)); err != nil {
		t.Fatal(err)
	}
	model = append(model, make([]byte, grown-len(model))...)
	committed(relinkFuzzMaxOps, "final growth")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// staleSlack returns the file offset of the first non-zero byte between
// EOF and the end of the file's last block, or -1: the invariant every
// growth of a file relies on (DESIGN.md, "Relink is a move").
func staleSlack(t *testing.T, kfs *ext4dax.FS, path string) int64 {
	t.Helper()
	f, err := kfs.OpenFile(path, vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, _ := f.Stat()
	last := info.Size / sim.BlockSize * sim.BlockSize
	kf := f.(*ext4dax.File)
	if info.Size == last || !kf.RangeAllocated(last, sim.BlockSize) {
		return -1
	}
	m, err := kfs.Remap(nil, kf, last, sim.BlockSize, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unmap()
	blk := make([]byte, sim.BlockSize)
	m.Load(blk, last)
	for i := info.Size; i < last+sim.BlockSize; i++ {
		if blk[i-last] != 0 {
			return i
		}
	}
	return -1
}

// heldBlocks sums the blocks of every inode under dir, dir included —
// extent-overflow blocks too (FileInfo.Blocks counts them), which a
// staging file full of holes has.
func heldBlocks(t *testing.T, kfs *ext4dax.FS, dir string) int64 {
	t.Helper()
	info, err := kfs.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	held := info.Blocks
	ents, err := kfs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		p := vfs.CleanPath(dir + "/" + e.Name)
		if e.IsDir {
			held += heldBlocks(t, kfs, p)
			continue
		}
		fi, err := kfs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		held += fi.Blocks
	}
	return held
}
