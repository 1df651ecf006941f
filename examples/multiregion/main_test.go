package main

import (
	"hash/fnv"
	"testing"
)

// TestOutputDigest pins the example's stdout, the one run of a PriceFactor
// appended to the paper's factors, by its FNV-64a. A changed digest means
// a changed line; review the output, then bless the new value.
func TestOutputDigest(t *testing.T) {
	h := fnv.New64a()
	if err := run(h); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), uint64(0x1cddaebc68dd39a7); got != want {
		t.Errorf("stdout digest %#016x, want %#016x", got, want)
	}
}
