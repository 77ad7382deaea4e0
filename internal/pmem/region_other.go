//go:build !linux

package pmem

type mappings struct{} // off Linux, every slab is a heap slab

func (*mappings) add() []frame { return nil }
func (*mappings) unmap()       {}
