package sim

// FNVOffset is the 64-bit FNV-1a offset basis, the h a digest starts
// from (xor a seed into it for a seeded digest).
const FNVOffset uint64 = 0xcbf29ce484222325

// FNV1a continues the 64-bit FNV-1a digest h over p. It is the one
// byte-slice checksum loop of the repository: the journal's commit
// records, metalog's record headers, the U-Split op log's staged-data
// sums and utilsim's content hashes all fold its result their own way, so
// replacing the function (ROADMAP item 5(c): CRC32-C) is a change to this
// one place — and to every on-media golden that embeds a sum.
func FNV1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}
