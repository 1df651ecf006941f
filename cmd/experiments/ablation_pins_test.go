//go:build !race

package main

// TestAblationDigest runs the whole week (0: all requests), whose report
// is `experiments -run ablation -seed N`'s stdout.
const ablationRequests = 0

var ablationPins = []struct {
	seed   int64
	digest uint64
}{
	{1, 0xe4f40c081e0c8822},
	{7, 0xcc3b33835249b9c9},
}
