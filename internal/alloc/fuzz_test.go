package alloc

import (
	"errors"
	"testing"

	"splitfs/internal/pmem"
	"splitfs/internal/sim"
	"splitfs/internal/vfs"
)

// bitmapModel is the reference FuzzBitmapModel compares the Bitmap with:
// one bool per block and nothing else.
type bitmapModel []bool

func (m bitmapModel) free() int64 {
	var n int64
	for _, used := range m {
		if !used {
			n++
		}
	}
	return n
}

// lowestAligned returns the first block of the lowest free run of n blocks
// at a device offset that is a multiple of align, or -1.
func (m bitmapModel) lowestAligned(n, align int64) int64 {
	for s := int64(0); s+n <= int64(len(m)); s++ {
		if (alignedData+s*sim.BlockSize)%align != 0 {
			continue
		}
		ok := true
		for i := s; i < s+n; i++ {
			ok = ok && !m[i]
		}
		if ok {
			return s
		}
	}
	return -1
}

// first returns the first block of [from, to) whose state is used, or to
// when there is none.
func (m bitmapModel) first(from, to int64, used bool) int64 {
	for i := from; i < to; i++ {
		if m[i] == used {
			return i
		}
	}
	return to
}

// lowest returns the lowest free block, or -1.
func (m bitmapModel) lowest() int64 {
	for i, used := range m {
		if !used {
			return int64(i)
		}
	}
	return -1
}

// FuzzBitmapModel runs a random AllocExtent / Alloc / AllocAligned / Free /
// AllocLowest sequence, decoded from the fuzz input, against the
// bool-slice model and requires: no block handed out twice, FreeCount
// exact, an aligned result aligned by device offset and the lowest there
// is, the fallback taken only when the model has no aligned run, a lowest
// result the model's lowest free block, and the next-fit hint untouched by
// either lowest-first call; after every step, First from the step's
// operand byte (a block, or past the last) to every end up to one past
// the bitmap, both states, is the model's first block in that state; at
// the end, a Load of every prefix of the stored bitmap reports the model's
// free count over that prefix.
// Op encoding: one opcode byte (its value modulo 5 selects the op), then
// one operand byte; a sequence ends when the input does.
func FuzzBitmapModel(f *testing.F) {
	f.Add([]byte("\x02\x8f\x02\x8f\x03\x00\x02\x8f"))                 // 16 blocks at 8: twice, free the first, again: reused
	f.Add([]byte("\x00\x03\x02\x87\x00\x0f\x03\x01\x02\xa7\x01\x20")) // next-fit runs around aligned ones
	f.Add([]byte("\x01\x5e\x02\x87\x03\x00\x02\x41\x02\xc3"))         // one block free: ENOSPC; then 4- and 16-block alignments
	// Single blocks, two freed again: the holes defeat the low aligned
	// windows, so aligned runs land above them or fall back.
	f.Add([]byte("\x00\x05\x04\x00\x03\x00\x04\x00\x04\x00")) // lowest takes a freed run from its bottom, behind the hint
	f.Add([]byte("\x01\x5f\x04\x00"))                         // every block taken: lowest fails ENOSPC
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x02\x03\x04\x02\x87\x01\x30\x02\x9f\x02\x9f"))
	f.Fuzz(func(t *testing.T, in []byte) {
		b, dev := newAlignedBitmap(t)
		m := make(bitmapModel, alignedBlocks)
		var live []Extent

		// take checks a successful allocation against the model and
		// records it in both.
		take := func(step int, exts []Extent, want int64, exact bool) {
			var total int64
			for _, e := range exts {
				if e.Len < 1 || e.Start < 0 || e.End() > alignedBlocks {
					t.Fatalf("step %d: extent %v outside the bitmap", step, e)
				}
				for i := e.Start; i < e.End(); i++ {
					if m[i] {
						t.Fatalf("step %d: block %d handed out twice (%v)", step, i, e)
					}
					m[i] = true
				}
				total += e.Len
				live = append(live, e)
			}
			if total > want || total < 1 || exact && total != want {
				t.Fatalf("step %d: allocated %d blocks, asked for %d (exact=%v)", step, total, want, exact)
			}
		}
		noSpace := func(step int, err error, free, need int64) {
			if !errors.Is(err, vfs.ErrNoSpace) || free >= need {
				t.Fatalf("step %d: err = %v with %d free, %d needed", step, err, free, need)
			}
		}

		for step := 0; len(in) >= 2; step++ {
			op, arg := in[0], int64(in[1])
			in = in[2:]
			free := m.free()
			switch op % 5 {
			case 0:
				want := arg%16 + 1
				e, _, err := b.AllocExtent(pmem.SrcForeground, want)
				if err != nil {
					noSpace(step, err, free, 1)
					break
				}
				take(step, []Extent{e}, want, false)
			case 1:
				n := arg%alignedBlocks + 1
				exts, _, err := b.Alloc(pmem.SrcForeground, n)
				if err != nil {
					noSpace(step, err, free, n)
					break
				}
				take(step, exts, n, true)
			case 2:
				n := arg%32 + 1
				align := int64(2<<(arg>>6&3)) * sim.BlockSize // 2, 4, 8 or 16 blocks
				want := m.lowestAligned(n, align)
				hint := b.hint
				exts, _, err := b.AllocAligned(pmem.SrcForeground, n, align)
				if err != nil {
					noSpace(step, err, free, n)
					break
				}
				aligned := len(exts) == 1 && exts[0].Len == n && b.ExtentOffset(exts[0])%align == 0
				switch {
				case want >= 0 && (!aligned || exts[0].Start != want):
					t.Fatalf("step %d: AllocAligned(%d, %d) = %v, model's lowest aligned run starts at %d",
						step, n, align, exts, want)
				case want >= 0 && b.hint != hint:
					t.Fatalf("step %d: aligned allocation moved the hint %d -> %d", step, hint, b.hint)
				case want < 0 && aligned:
					t.Fatalf("step %d: AllocAligned(%d, %d) = %v, model has no aligned run", step, n, align, exts)
				}
				take(step, exts, n, true)
			case 3:
				if len(live) == 0 {
					break
				}
				k := int(arg) % len(live)
				e := live[k]
				live = append(live[:k], live[k+1:]...)
				b.Free(pmem.SrcForeground, e)
				for i := e.Start; i < e.End(); i++ {
					m[i] = false
				}
			case 4:
				want, hint := m.lowest(), b.hint
				e, _, err := b.AllocLowest(pmem.SrcForeground)
				if err != nil {
					noSpace(step, err, free, 1)
					break
				}
				if e.Start != want || e.Len != 1 {
					t.Fatalf("step %d: AllocLowest = %v, model's lowest free block is %d", step, e, want)
				}
				if b.hint != hint {
					t.Fatalf("step %d: AllocLowest moved the hint %d -> %d", step, hint, b.hint)
				}
				take(step, []Extent{e}, 1, true)
			}
			if got, want := b.FreeCount(), m.free(); got != want {
				t.Fatalf("step %d (op %#x): FreeCount = %d, model %d", step, op, got, want)
			}
			for i, used := range m {
				if b.isSet(int64(i)) != used {
					t.Fatalf("step %d (op %#x): block %d allocated = %v, model %v", step, op, i, !used, used)
				}
			}
			from := arg % (alignedBlocks + 1)
			for to := from; to <= alignedBlocks+1; to++ {
				for _, used := range []bool{false, true} {
					if got, want := b.First(from, to, used), m.first(from, min(to, alignedBlocks), used); got != want {
						t.Fatalf("step %d: First(%d, %d, %v) = %d, model %d", step, from, to, used, got, want)
					}
				}
			}
		}
		// What the allocator wrote through to the device is what it holds,
		// and a Load of any prefix of it counts that prefix alone, whether
		// or not it ends on a 64-block word: the bits past it are not its.
		for n := int64(1); n <= alignedBlocks; n++ {
			if got, want := Load(dev, alignedBase, alignedData, n).FreeCount(), m[:n].free(); got != want {
				t.Fatalf("Load of %d blocks: FreeCount = %d, model %d", n, got, want)
			}
		}
	})
}
