// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role of the StarLite concurrent
// programming kernel in the paper's prototyping environment: simulated
// processes are created, readied, blocked, and terminated under a virtual
// clock, and exactly one process runs at a time so every run is
// reproducible.
package sim

import (
	"encoding/json"
	"fmt"
	"math"
)

// Time is an instant of virtual time, in ticks. One tick is one
// microsecond of simulated time; the constants below give readable units.
type Time int64

// Duration is a span of virtual time, in ticks.
type Duration int64

// Virtual-time units. These mirror time.Duration's naming but are
// independent of wall-clock time: the simulation advances only when the
// kernel dispatches events.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts a virtual duration to floating-point seconds, for
// reporting rates such as objects per second.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis converts a virtual duration to floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// FromMillis converts fractional milliseconds, the unit run specs and
// the command line write durations in, to the nearest tick.
func FromMillis(ms float64) Duration { return Duration(math.Round(ms * float64(Millisecond))) }

// MarshalJSON writes d as fractional milliseconds.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.Millis()) }

// UnmarshalJSON reads fractional milliseconds, rounded to the nearest
// tick. It accepts up to 2^50 ticks (about 35 years), within which the
// encoding round-trips every tick count exactly.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil || math.Abs(ms) > 1<<50/float64(Millisecond) {
		return fmt.Errorf("sim: duration %s is not a number of milliseconds within 2^50 ticks", b)
	}
	*d = FromMillis(ms)
	return nil
}

// MarshalJSON writes t as fractional milliseconds since time zero.
func (t Time) MarshalJSON() ([]byte, error) { return Duration(t).MarshalJSON() }

// UnmarshalJSON reads t as Duration.UnmarshalJSON does.
func (t *Time) UnmarshalJSON(b []byte) error { return (*Duration)(t).UnmarshalJSON(b) }
