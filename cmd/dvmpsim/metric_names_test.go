package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// metricNamesSection is DESIGN.md §9's "Metric names": the text from that
// heading to the next one.
func metricNamesSection(t *testing.T) string {
	t.Helper()
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### Metric names\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Metric names" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	return section
}

// undocumented returns the names the section does not spell as `name`.
func undocumented(section string, names []string) []string {
	var missing []string
	for _, name := range names {
		if !strings.Contains(section, "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	return missing
}

// TestMetricNamesDocumented runs the seed-1 week under the dynamic scheme
// with spares, first-fit and threshold with -metrics, and requires every
// counter, gauge, histogram and phase each run registers to appear in
// DESIGN.md §9's "Metric names". A new metric is documented or this fails
// naming it.
func TestMetricNamesDocumented(t *testing.T) {
	section := metricNamesSection(t)
	if got := undocumented(section, []string{"sim.arrivals", "sim.not_a_metric"}); len(got) != 1 || got[0] != "sim.not_a_metric" {
		t.Fatalf("the check passes an undocumented name: %v", got)
	}
	dir := t.TempDir()
	for _, flags := range []string{"-spare", "-scheme first-fit", "-scheme threshold"} {
		t.Run(flags, func(t *testing.T) {
			path := filepath.Join(dir, "m.json")
			if err := run(append(strings.Fields(flags), "-seed", "1", "-metrics", path), &strings.Builder{}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var dump map[string]map[string]json.RawMessage
			if err := json.Unmarshal(data, &dump); err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, kind := range []string{"counters", "gauges", "histograms", "phases"} {
				if len(dump[kind]) == 0 && kind != "histograms" {
					t.Errorf("the run registered no %s", kind)
				}
				for name := range dump[kind] {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			if missing := undocumented(section, names); len(missing) > 0 {
				t.Errorf("metrics missing from DESIGN.md §9 \"Metric names\": %v", missing)
			}
		})
	}
}
