package exp

import (
	"testing"

	"repro/internal/stats"
)

func TestGoogleTraceShape(t *testing.T) {
	reqs := GoogleTrace(2)
	if len(reqs) < 15000 {
		t.Errorf("google-like trace too small: %d requests", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Submit < reqs[i-1].Submit {
			t.Fatal("trace not sorted")
		}
	}
	// Median runtime must be in the minutes range, not hours.
	runtimes := make([]float64, len(reqs))
	for i, q := range reqs {
		runtimes[i] = q.RunTime
	}
	if med := stats.Median(runtimes); med > 3600 {
		t.Errorf("median runtime %gs, want sub-hour cloud tasks", med)
	}
}
