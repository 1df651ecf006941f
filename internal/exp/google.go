package exp

import "repro/internal/workload"

// GoogleTrace generates, filters, and splits a week of the Google-like
// cloud workload preset, the alternate trace for the E-R2 generality
// study.
func GoogleTrace(seed int64) []workload.Request {
	jobs := workload.MustGenerate(workload.GoogleLikeConfig(seed))
	jobs = workload.Filter(jobs, workload.DefaultFilter())
	return workload.ToRequests(jobs)
}

// GeneralityStudy runs the scheme comparison on the Google-like workload:
// same fleet, same schemes, a completely different trace character.
func GeneralityStudy(opts Options) ([]*SchemeRun, error) {
	opts.Trace = GoogleTrace(opts.Seed)
	return Comparison(opts)
}
