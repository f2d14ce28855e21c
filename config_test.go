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
	if s.Mode != "single" || s.Protocol != "C" || s.DBSize != 100 {
		t.Fatalf("spec = %+v", s)
	}
}

func TestParseSpecRejectsBad(t *testing.T) {
	cases := []string{
		`{`,                                    // malformed JSON
		`{"mode": "weird"}`,                    // bad mode
		`{"mode": "single", "protocol": "ZZ"}`, // unknown protocol
		`{"mode": "single", "workload": {"readOnlyFrac": 2}}`,        // bad fraction
		`{"mode": "distributed", "workload": {"readOnlyFrac": -.1}}`, // bad fraction
	}
	for i, c := range cases {
		if _, err := ParseSpec([]byte(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
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
	if s.Protocol != "C" {
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
