//go:build !race

package sim

// scalePins is the whole 300-PM week (TestScaleWeekDigest).
var scalePins = scaleWeekPins{
	run: 0x752f3ace090f9283, dec: 0x7f6e133883f9b7e5,
	scans: 25480, rounds: 11557,
}
