package sim

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestDurationJSONMillis: durations travel as fractional milliseconds,
// decode to the nearest tick, and round-trip exactly up to 2^50 ticks.
func TestDurationJSONMillis(t *testing.T) {
	for in, want := range map[string]Duration{"1.001": 1001, "1.003": 1003, "0.0006": 1, "-2.5": -2500, "null": 0} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil || d != want {
			t.Errorf("%s ms = %d ticks, %v; want %d", in, d, err, want)
		}
	}
	for _, in := range []string{`"10"`, "true", "1e300", "-1.2e12"} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err == nil {
			t.Errorf("%s accepted as %d ticks", in, d)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		want := Time(r.Int63n(1<<51) - 1<<50)
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Time
		if err := json.Unmarshal(b, &got); err != nil || got != want {
			t.Fatalf("%d ticks encode as %s and decode to %d, %v", want, b, got, err)
		}
	}
}
