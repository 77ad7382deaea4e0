package sim

import "testing"

// TestCRC32CVector pins the on-media polynomial by the standard check
// value of CRC-32C (Castagnoli) — any other table, bit order or final
// inversion gives another number — and checks that a sum continues across
// slices, which is how the journal sums a transaction block by block.
func TestCRC32CVector(t *testing.T) {
	if got := CRC32C(0, []byte("123456789")); got != 0xE3069283 {
		t.Errorf(`CRC32C(0, "123456789") = %#x, want 0xe3069283`, got)
	}
	if got, want := CRC32C(CRC32C(7, []byte("1234")), []byte("56789")), CRC32C(7, []byte("123456789")); got != want {
		t.Errorf("continued sum %#x != one-shot sum %#x", got, want)
	}
	if CRC32C(7, []byte("123456789")) == CRC32C(8, []byte("123456789")) {
		t.Error("the seed does not reach the sum")
	}
}

// TestFNV1a pins the digest to the published 64-bit FNV-1a vectors — the
// zipfian scrambler and utilsim's object names are built on it, and
// workload goldens on them — and checks that a digest continues across
// slices.
func TestFNV1a(t *testing.T) {
	for in, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := FNV1a(FNVOffset, []byte(in)); got != want {
			t.Errorf("FNV1a(%q) = %#x, want %#x", in, got, want)
		}
	}
	if got, want := FNV1a(FNV1a(FNVOffset, []byte("foo")), []byte("bar")), FNV1a(FNVOffset, []byte("foobar")); got != want {
		t.Errorf("continued digest %#x != one-shot digest %#x", got, want)
	}
}
