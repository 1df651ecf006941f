package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	runs, err := Comparison(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var records []RunRecord
	if err := json.NewDecoder(&buf).Decode(&records); err != nil {
		t.Fatal(err)
	}
	if len(records) != len(runs) {
		t.Fatalf("records = %d", len(records))
	}
	for i, rec := range records {
		if rec.Scheme != runs[i].Scheme {
			t.Errorf("record %d scheme = %q", i, rec.Scheme)
		}
		if rec.WeekEnergyKWh != runs[i].WeekEnergyKWh {
			t.Errorf("record %d energy mismatch", i)
		}
		if len(rec.HourlyActivePMs) == 0 || len(rec.HourlyActivePMs) > WeekHours {
			t.Errorf("record %d series length %d", i, len(rec.HourlyActivePMs))
		}
	}
}
