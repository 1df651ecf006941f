package core

import (
	"testing"

	"repro/internal/obs"
)

// TestMetricsFollowObserver: the Context's cached metric handles belong to
// the Observer they were made for. A pass after ctx.Obs changes counts on
// the new Observer only, and a pass with no Observer counts nowhere.
func TestMetricsFollowObserver(t *testing.T) {
	ctx, _ := tableIIState(t, 40, 80, 2)
	a, b := obs.New(), obs.New()
	for _, o := range []*obs.Observer{a, nil, b, b} {
		ctx.Obs = o
		if _, err := ConsolidateWith(ctx, DefaultFactors(), DefaultParams(), MatrixOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		o    *obs.Observer
		want int64
	}{{a, 1}, {b, 2}} {
		if got := c.o.Counter("core.consolidate_passes").Value(); got != c.want {
			t.Errorf("core.consolidate_passes = %d, want %d", got, c.want)
		}
		if got := c.o.Phase("collect_columns").Calls(); got != c.want {
			t.Errorf("collect_columns calls = %d, want %d", got, c.want)
		}
	}
}
