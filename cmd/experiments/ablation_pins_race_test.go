//go:build race

package main

// TestAblationDigest runs the week's first 2,000 requests under the race
// detector, with pins of their own.
const ablationRequests = 2000

var ablationPins = []struct {
	seed   int64
	digest uint64
}{
	{1, 0xc24b705cfa3d7187},
	{7, 0x32430af263af73ee},
}
