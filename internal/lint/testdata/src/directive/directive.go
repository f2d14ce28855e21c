// Package directive is a golden fixture for //rtlint:allow handling:
// working suppressions stay silent, and malformed, unknown, or stale
// directives are diagnostics in their own right.
package directive

import "time"

func observe(int64) {}

// OK: a justified suppression on the line above the finding.
func allowedAbove(m map[int64]int64) {
	//rtlint:allow maprange order provably cannot reach the journal in this fixture
	for id := range m {
		observe(id)
	}
}

// OK: a justified trailing suppression on the finding's own line.
func allowedTrailing() int64 {
	return time.Now().UnixNano() //rtlint:allow wallclock fixture exercises trailing-comment suppression
}

// Stale: nothing on this or the next line trips maprange.
func stale(xs []int64) {
	/* want "stale suppression" */ //rtlint:allow maprange nothing nondeterministic here
	for _, x := range xs {
		observe(x)
	}
}

// Unknown analyzer name.
func unknown(m map[int64]int64) {
	/* want "unknown analyzer" */ //rtlint:allow mapsort iteration order is fine
	for id := range m {           // want "nondeterministic iteration order"
		observe(id)
	}
}

// Missing reason: the suppression must not take effect.
func reasonless(m map[int64]int64) {
	/* want "needs a reason" */ //rtlint:allow maprange
	for id := range m {         // want "nondeterministic iteration order"
		observe(id)
	}
}

// Unknown verb.
func badVerb(m map[int64]int64) {
	/* want "unknown rtlint directive verb" */ //rtlint:deny maprange because
	for id := range m {                        // want "nondeterministic iteration order"
		observe(id)
	}
}

// A space between // and rtlint looks active but is not; flag it so the
// reader is not misled.
func spaced(m map[int64]int64) {
	/* want "no space" */ // rtlint:allow maprange looks real but is inert
	for id := range m {   // want "nondeterministic iteration order"
		observe(id)
	}
}

// A directive only suppresses its own analyzer: this wallclock allow
// does not quiet maprange (and is stale for wallclock).
func wrongAnalyzer(m map[int64]int64) {
	/* want "stale suppression" */ //rtlint:allow wallclock suppressing the wrong analyzer
	for id := range m {            // want "nondeterministic iteration order"
		observe(id)
	}
}

// A near-miss analyzer name earns a spelling suggestion on top of the
// unknown-analyzer diagnostic.
func nearMiss(m map[int64]int64) {
	/* want "unknown analyzer \"mapranges\" \\(did you mean \"maprange\"\\?\\)" */ //rtlint:allow mapranges iteration order is fine
	for id := range m {                                                            // want "nondeterministic iteration order"
		observe(id)
	}
}

// rtlint has no marker directives; a leftover one is an unknown verb,
// so no reader takes the type below for checked.
func leftoverMarker() {
	/* want "unknown rtlint directive verb" */ //rtlint:pooled
	type local struct{ n int }
	_ = local{}
}
