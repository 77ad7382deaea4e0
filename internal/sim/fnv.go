package sim

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C continues the CRC-32C (Castagnoli) checksum crc over p; start
// from 0, or from a seed. It is the one checksum of everything that is
// checksummed on media — the journal's commit records and metalog's record
// headers (the U-Split op log's entries among them) — the polynomial
// jbd2's own checksum feature uses: the standard library runs it on the
// SSE4.2 / ARMv8 crc32 instructions. It calls through a function variable,
// so p escapes: hand it memory that is on the heap already (DESIGN.md,
// "Checksums").
func CRC32C(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// FNVOffset is the 64-bit FNV-1a offset basis, the h a digest starts
// from (xor a seed into it for a seeded digest).
const FNVOffset uint64 = 0xcbf29ce484222325

// FNV1a continues the 64-bit FNV-1a digest h over p. Nothing on media
// uses it (that is CRC32C): it scrambles the zipfian generator's keys
// (rng.go, as YCSB does) and names utilsim's git objects by content — a
// workload's inputs, off every file system's own path, where goldens
// depend on the values.
func FNV1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}
