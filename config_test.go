package rtlock

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const singleSpec = `{
  "mode": "single",
  "protocol": "C",
  "dbSize": 100,
  "cpuPerObjMs": 10,
  "memoryResident": true,
  "recordHistory": true,
  "traceEvents": 50,
  "workload": {"seed": 3, "count": 40, "meanSize": 5}
}`

const distSpec = `{
  "mode": "distributed",
  "sites": 3,
  "commDelayMs": 15,
  "workload": {"seed": 3, "count": 40, "meanSize": 5, "readOnlyFrac": 0.5}
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(singleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Single == nil || s.Single.Protocol != "C" || s.Single.DBSize != 100 || s.Distributed != nil {
		t.Fatalf("spec = %+v", s)
	}
}

// TestSpecDurationsRoundToTheTick: a millisecond key converts to the
// nearest tick, not the one below.
func TestSpecDurationsRoundToTheTick(t *testing.T) {
	for ms, want := range map[string]Duration{"1.001": 1001, "1.003": 1003, "0.0004": 0, "0.0006": 1, "10": 10 * Millisecond} {
		s, err := ParseSpec([]byte(`{"mode": "single", "cpuPerObjMs": ` + ms + `}`))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Single.CPUPerObj; got != want {
			t.Errorf("cpuPerObjMs %s = %d ticks, want %d", ms, got, want)
		}
	}
}

// TestFailureOfMissingSite: a failure scheduled on a site the cluster
// does not have is an error naming the site, through the spec and the
// facade alike, not a silent no-op.
func TestFailureOfMissingSite(t *testing.T) {
	const want = "rtlock: failure of site 7, outside the 3 sites"
	_, err := ParseSpec([]byte(`{"mode": "distributed", "failures": [{"site": 7, "atMs": 5}], "workload": {"count": 50}}`))
	if err == nil || err.Error() != want {
		t.Errorf("spec: error %v, want %q", err, want)
	}
	_, err = RunDistributed(DistributedConfig{Failures: []SiteFailure{{Site: -1, At: Time(5 * Millisecond)}}})
	if err == nil || !strings.Contains(err.Error(), "site -1") {
		t.Errorf("facade: error %v, want one naming site -1", err)
	}
	if _, err := ParseSpec([]byte(`{"mode": "distributed", "sites": 8, "failures": [{"site": 7, "atMs": 5}]}`)); err != nil {
		t.Errorf("failure of site 7 of 8: %v", err)
	}
}

func TestParseSpecRejectsBad(t *testing.T) {
	cases := []string{
		`{`,                                    // malformed JSON
		`{"mode": "weird"}`,                    // bad mode
		`{"mode": "single", "protocol": "ZZ"}`, // unknown protocol
		`{"mode": "single", "workload": {"readOnlyFrac": 2}}`,           // bad fraction
		`{"mode": "distributed", "workload": {"readOnlyFrac": -.1}}`,    // bad fraction
		`{"mode": "single", "bogus": 1}`,                                // unknown key
		`{"mode": "single", "workload": {"count": 50, "meanSizze": 3}}`, // unknown workload key
		`{"mode": "single", "cpuPerObjMs": "10"}`,                       // duration as a string
		`{"mode": "single"} {}`,                                         // trailing data
	}
	for i, c := range cases {
		if _, err := ParseSpec([]byte(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
	// A value the config declares but cannot run with; the error names it.
	for spec, want := range map[string]string{
		`{"mode": "distributed", "placement": "bogus"}`:                                    `"bogus"`,
		`{"mode": "distributed", "placement": "shard", "workload": {"localityProb": 1.5}}`: "localityProb 1.5",
	} {
		if _, err := ParseSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", spec, err, want)
		}
	}
	// A field only the other mode reads would be dropped by Run; the
	// error names it.
	otherMode := []struct{ spec, field string }{
		{`{"mode": "single", "global": true}`, "global"},
		{`{"mode": "single", "hashShards": true}`, "hashShards"},
		{`{"mode": "single", "replicas": 3}`, "replicas"},
		{`{"mode": "single", "readQuorum": 2}`, "readQuorum"},
		{`{"mode": "single", "writeQuorum": 2}`, "writeQuorum"},
		{`{"mode": "single", "sites": 4}`, "sites"},
		{`{"mode": "single", "commDelayMs": 5}`, "commDelayMs"},
		{`{"mode": "single", "applyPerObjMs": 5}`, "applyPerObjMs"},
		{`{"mode": "single", "multiversion": true}`, "multiversion"},
		{`{"mode": "single", "snapshotLagMs": 5}`, "snapshotLagMs"},
		{`{"mode": "single", "failures": [{"site": 1, "atMs": 50}]}`, "failures"},
		{`{"mode": "single", "siteSpeed": [1, 2]}`, "siteSpeed"},
		{`{"mode": "single", "placement": "shard"}`, "placement"},
		{`{"mode": "single", "workload": {"localityProb": 0.5}}`, "workload.localityProb"},
		{`{"mode": "distributed", "protocol": "HP", "traceEvents": 50, "wal": true}`, "protocol"},
		{`{"mode": "distributed", "ioPerObjMs": 20}`, "ioPerObjMs"},
		{`{"mode": "distributed", "memoryResident": true}`, "memoryResident"},
		{`{"mode": "distributed", "bufferPages": 10}`, "bufferPages"},
		{`{"mode": "distributed", "ioDisks": 2}`, "ioDisks"},
		{`{"mode": "distributed", "wal": true}`, "wal"},
		{`{"mode": "distributed", "checkpointEveryMs": 100}`, "checkpointEveryMs"},
		{`{"mode": "distributed", "traceEvents": 50}`, "traceEvents"},
	}
	for _, c := range otherMode {
		_, err := ParseSpec([]byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.field)) {
			t.Errorf("%s: error %v, want one naming %q", c.spec, err, c.field)
		}
	}
	// A distributed spec may spell out the protocol it runs.
	if _, err := ParseSpec([]byte(`{"mode": "distributed", "protocol": "C"}`)); err != nil {
		t.Errorf("distributed spec naming C: %v", err)
	}
}

func TestZeroSpecRunErrors(t *testing.T) {
	if _, err := (&Spec{}).Run(); err == nil || !strings.Contains(err.Error(), "no run config") {
		t.Fatalf("zero spec ran: %v", err)
	}
}

func TestSpecRunSingleWithTrace(t *testing.T) {
	s, err := ParseSpec([]byte(singleSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Processed != 40 {
		t.Fatalf("processed = %d", res.Summary.Processed)
	}
	if res.Serializable == nil || !*res.Serializable {
		t.Fatal("history missing or not serializable")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("trace not recorded")
	}
	if res.Trace.Len() > 50 {
		t.Fatalf("trace exceeded cap: %d", res.Trace.Len())
	}
	// Every transaction in the trace has an arrival before anything
	// else.
	tl := res.Trace.Timeline(1)
	if len(tl) == 0 || tl[0].Kind != TraceEventArrive {
		t.Fatalf("tx1 timeline starts with %+v", tl)
	}
}

// TestTraceShowsBlockedGrant runs the monitor example's load: tx2
// arrives behind tx1's lock on object 1, and its grant line carries the
// 15ms it was blocked.
func TestTraceShowsBlockedGrant(t *testing.T) {
	txs := []*Txn{
		{ID: 1, Kind: Update, Arrival: 0, Deadline: Time(Second),
			Ops: []Op{{Obj: 1, Mode: Write}, {Obj: 2, Mode: Write}, {Obj: 3, Mode: Write}}},
		{ID: 2, Kind: Update, Arrival: Time(15 * Millisecond), Deadline: Time(200 * Millisecond),
			Ops: []Op{{Obj: 1, Mode: Write}}},
	}
	res, err := RunSingleSite(SingleSiteConfig{MemoryResident: true, TraceEvents: 100,
		Workload: WorkloadConfig{Transactions: txs}})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Trace.Timeline(2)
	if len(tl) == 0 || tl[0].Kind != TraceEventArrive {
		t.Fatalf("tx2 timeline starts with %+v", tl)
	}
	for _, e := range tl {
		if e.Kind == TraceEventLockGrant {
			if e.Blocked != 15*Millisecond || !strings.HasSuffix(e.String(), "W blocked 15.0ms") {
				t.Fatalf("tx2 grant = %q, blocked %v; want 15ms", e, e.Blocked)
			}
			return
		}
	}
	t.Fatalf("tx2 has no grant:\n%s", res.Trace)
}

func TestSpecRunDistributed(t *testing.T) {
	s, err := ParseSpec([]byte(distSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Processed != 40 {
		t.Fatalf("processed = %d", res.Summary.Processed)
	}
	if res.Replication == nil {
		t.Fatal("local distributed run missing replication stats")
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, []byte(singleSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Single == nil || s.Single.Protocol != "C" {
		t.Fatalf("spec = %+v", s)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSpecDeterministicAcrossRuns(t *testing.T) {
	run := func() Summary {
		s, err := ParseSpec([]byte(distSpec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("spec runs diverged: %+v vs %+v", a, b)
	}
}
