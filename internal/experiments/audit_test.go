package experiments

import (
	"strings"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/dist"
)

// The Audit flag turns every experiment cell into a correctness check:
// the protocol's invariant auditors observe each journal record as it
// is written, and any violation fails the run. Exhaustive per-protocol
// determinism coverage lives in the root package's determinism tests;
// these check the plumbing at the experiments layer.

func TestAuditFlagSingleSite(t *testing.T) {
	p := DefaultSingleSite()
	p.Scale(0.25, 1)
	p.Audit = true
	for _, proto := range []Protocol{core.ProtoCeiling, core.ProtoTwoPLHP, core.ProtoTwoPLDD} {
		q := Params{Single: p}
		if _, err := NewSweep(q).runs(q.single(proto, bySize, 12)); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

func TestAuditFlagDistributed(t *testing.T) {
	p := DefaultDistributed()
	p.Scale(0.25, 1)
	p.Audit = true
	for _, mode := range []dist.Mode{dist.Global, dist.Local} {
		q := Params{Dist: p}
		if _, err := NewSweep(q).runs(q.paper(mode, 0.5, 2)); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestAuditFlagUnknownProtocol checks the failure plumbing: an unknown
// protocol must surface an error, not a silent skip.
func TestAuditFlagUnknownProtocol(t *testing.T) {
	p := DefaultSingleSite()
	p.Scale(0.25, 1)
	p.Audit = true
	q := Params{Single: p}
	if _, err := NewSweep(q).runs(q.single("nope", bySize, 12)); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("want unknown-protocol error, got %v", err)
	}
}
