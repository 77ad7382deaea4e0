package sim

import "testing"

// TestFNV1a pins the digest to the published 64-bit FNV-1a vectors — the
// journal, metalog and op-log checksums on media are folds of it — and
// checks that a digest continues across slices.
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
