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
	p := DefaultSingleSite().Scale(0.25, 1)
	p.Audit = true
	for _, proto := range []Protocol{core.ProtoCeiling, core.ProtoTwoPLHP, core.ProtoTwoPLDD} {
		if _, err := NewSweep(Params{Single: p}).runs(p.cell(proto, 12)); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

func TestAuditFlagDistributed(t *testing.T) {
	p := DefaultDistributed().Scale(0.25, 1)
	p.Audit = true
	for _, mode := range []dist.Mode{dist.Global, dist.Local} {
		if _, err := NewSweep(Params{Dist: p}).runs(p.cell(mode, 0.5, 2)); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestAuditFlagUnknownProtocol checks the failure plumbing: an unknown
// protocol must surface an error, not a silent skip.
func TestAuditFlagUnknownProtocol(t *testing.T) {
	p := DefaultSingleSite().Scale(0.25, 1)
	p.Audit = true
	if _, err := NewSweep(Params{Single: p}).runs(p.cell("nope", 12)); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("want unknown-protocol error, got %v", err)
	}
}
