//go:build !race

package sim

// The whole scope of the tests that the race detector's budget trims
// (budget_race_test.go).
const (
	// untouchedRequests is the length of TestRunLeavesDynamicUntouched's
	// week prefix.
	untouchedRequests = 200

	// holdUnwindAudited is how many of TestFailureHoldUnwindDeterministic's
	// six seeds audit their first run at every event.
	holdUnwindAudited = 6

	// crashStride is TestCrashResumeEveryBoundary's step between the
	// boundaries it resumes from: every one.
	crashStride = 1
)
