package pmem

import (
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mappings are a pool's regions, held apart from its device for its cleanup.
type mappings [][]byte

var mappedBytes atomic.Int64 // bytes of every pool's regions still mapped

// add maps two huge pages and returns the frames of the 2 MB-aligned one,
// advised MADV_HUGEPAGE (one fault backs and zeroes it); nil if the map fails.
func (m *mappings) add() []frame {
	r, err := syscall.Mmap(-1, 0, 2*hugePage, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	h := r[-uintptr(unsafe.Pointer(&r[0]))&(hugePage-1):][:hugePage]
	_ = syscall.Madvise(h, syscall.MADV_HUGEPAGE) // advice only: refused, the region faults 4 KB at a time
	*m = append(*m, r)
	mappedBytes.Add(int64(len(r)))
	return unsafe.Slice((*frame)(unsafe.Pointer(&h[0])), hugeFrames)
}

func (m *mappings) unmap() {
	for _, r := range *m {
		_ = syscall.Munmap(r) // fails only for a range it was not handed
		mappedBytes.Add(-int64(len(r)))
	}
}
