package rtlock

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rtlock/internal/core"
)

// TestProtocolTableConformance checks every row of the protocol table
// against what the rest of the tree keys on it, so a new row is covered
// by construction and a refactor of the table cannot silently drop a
// check. The auditor names are written out on purpose: they are what
// audit.ForManager selected per manager name before the table existed.
// (That each row's manager answers to the row's name is core's
// TestManagerNames.)
func TestProtocolTableConformance(t *testing.T) {
	locks := []string{"serializable", "strict-two-phase", "lock-safety"}
	wantAuditors := map[Protocol][]string{
		Ceiling:           append(slices.Clone(locks), "deadlock-free", "pcp-blocked-at-most-once"),
		CeilingExclusive:  append(slices.Clone(locks), "deadlock-free", "pcp-blocked-at-most-once"),
		TwoPLHighPriority: append(slices.Clone(locks), "deadlock-free"),
		TwoPLPriority:     locks,
		TwoPL:             locks,
		TwoPLInherit:      locks,
		TwoPLDetect:       locks,
		TwoPLConditional:  locks,
		TimestampOrdering: {"serializable"},
	}
	if len(wantAuditors) != len(core.Protocols) {
		t.Errorf("auditor table names %d protocols, the protocol table has %d rows", len(wantAuditors), len(core.Protocols))
	}
	letters, names := map[Protocol]bool{}, map[string]bool{}
	for i := range core.Protocols {
		r := &core.Protocols[i]
		if letters[r.Letter] || names[r.Name] {
			t.Errorf("row %d repeats letter %q or name %q", i, r.Letter, r.Name)
		}
		letters[r.Letter], names[r.Name] = true, true
		if _, err := os.Stat(filepath.Join("testdata", "journals", "single_"+string(r.Letter)+".bin")); err != nil {
			t.Errorf("%s: no golden journal: %v", r.Letter, err)
		}
		auds, err := AuditorsForProtocol(r.Letter)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, a := range auds {
			got = append(got, a.Name())
		}
		if !slices.Equal(got, wantAuditors[r.Letter]) {
			t.Errorf("%s: auditors %v, want %v", r.Letter, got, wantAuditors[r.Letter])
		}
	}
}
