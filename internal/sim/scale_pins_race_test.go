//go:build race

package sim

// scalePins is the 300-PM week's first 5,000 requests (of 27,129): the race
// detector runs the whole week in 17–19 s on a 2-CPU box, this prefix in
// about 3 s, within the 5 s a tier-1 test may take there.
var scalePins = scaleWeekPins{
	requests: 5000,
	run:      0x4d2d1831c2f90c67, dec: 0x172f59b9d2cf6d6e,
	scans: 3069, rounds: 1261,
}
