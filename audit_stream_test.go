package rtlock

import (
	"fmt"
	"slices"
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
)

// TestStreamedAuditMatchesReplay checks that auditing a run as its
// journal is written finds exactly what replaying the retained journal
// finds. Each case runs once with Audit alone, which keeps no records,
// and once with Journal as well; the first run's violations must equal
// audit.Run over the second run's journal with fresh auditors.
func TestStreamedAuditMatchesReplay(t *testing.T) {
	type tc struct {
		name   string
		run    func(journal bool) (*Result, error)
		fresh  func() []Auditor
		expect []string // exact findings, when the case pins them
	}
	single := func(p Protocol, w WorkloadConfig) func(bool) (*Result, error) {
		return func(journal bool) (*Result, error) {
			return RunSingleSite(SingleSiteConfig{Protocol: p, Audit: true, Journal: journal, Workload: w})
		}
	}
	protoAuditors := func(p Protocol) func() []Auditor {
		return func() []Auditor {
			auds, err := AuditorsForProtocol(p)
			if err != nil {
				t.Fatal(err)
			}
			return auds
		}
	}
	var cases []tc
	for _, r := range core.Protocols {
		cases = append(cases, tc{name: "single/" + string(r.Letter),
			run:   single(r.Letter, WorkloadConfig{Seed: 3, Count: 300}),
			fresh: protoAuditors(r.Letter)})
	}
	// The known protocol C finding: a second ceiling block after a
	// newcomer's registration raised the ceiling over a held lock.
	cases = append(cases, tc{name: "single/C/finding",
		run:    single(Ceiling, WorkloadConfig{Seed: 6, Count: 2000}),
		fresh:  protoAuditors(Ceiling),
		expect: []string{"pcp-blocked-at-most-once seq=38599 tx=646"}})

	const count = 150
	plan, err := GenerateFaultPlan(5, FaultGenParams{
		Sites: 4, Horizon: count * 30 * int64(Millisecond), Severity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("generated fault plan is empty")
	}
	for _, m := range []struct {
		mode string
		cfg  DistributedConfig
	}{
		{"local", DistributedConfig{}},
		{"global", DistributedConfig{Global: true}},
		{"shard", DistributedConfig{Placement: "shard", Workload: WorkloadConfig{LocalityProb: 0.7}}},
		{"quorum", DistributedConfig{Placement: "quorum", Workload: WorkloadConfig{LocalityProb: 0.7}}},
	} {
		for _, faulted := range []bool{false, true} {
			cfg := m.cfg
			cfg.Sites, cfg.Audit = 4, true
			cfg.Workload.Seed, cfg.Workload.Count = 2, count
			name, fresh := "dist/"+m.mode, func() []Auditor { return audit.ForPlacement(m.mode) }
			if faulted {
				cfg.Faults = plan
				name, fresh = name+"/faults", func() []Auditor { return audit.ForFaults(m.mode) }
			}
			cases = append(cases, tc{name: name, fresh: fresh,
				run: func(journal bool) (*Result, error) {
					c := cfg
					c.Journal = journal
					return RunDistributed(c)
				}})
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			streamed, err := c.run(false)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Journal != nil {
				t.Fatal("an audit-only run returned a journal")
			}
			if streamed.Violations == nil {
				t.Fatal("an audited run returned nil Violations")
			}
			kept, err := c.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if kept.Journal.Len() == 0 || kept.Journal.Len() != len(kept.Journal.Records()) {
				t.Fatalf("retained journal: Len %d, %d records", kept.Journal.Len(), len(kept.Journal.Records()))
			}
			replayed := audit.Run(kept.Journal, c.fresh()...)
			if !slices.Equal(streamed.Violations, replayed) || !slices.Equal(kept.Violations, replayed) {
				t.Fatalf("streamed %v, streamed with journal %v, replayed %v",
					streamed.Violations, kept.Violations, replayed)
			}
			if c.expect == nil {
				return
			}
			var got []string
			for _, v := range streamed.Violations {
				got = append(got, fmt.Sprintf("%s seq=%d tx=%d", v.Rule, v.Seq, v.Tx))
			}
			if !slices.Equal(got, c.expect) {
				t.Fatalf("findings %v, want %v", got, c.expect)
			}
		})
	}
}
