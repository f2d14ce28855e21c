package rtlock

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestSpecCarriesFaultPlan: a distributed spec's "faults" key is a
// fault plan in its own format, ticks and all, so the example spec runs
// the plan it spells out.
func TestSpecCarriesFaultPlan(t *testing.T) {
	s, err := LoadSpec("examples/specs/distributed-faults.json")
	if err != nil {
		t.Fatal(err)
	}
	const want = "faults{crash(1@3000000-5000000);link(-1>-1@1000000-9000000,drop=0.05,dup=0.02,jit=2000);part([0]@6500000-7500000)}"
	if c := s.Distributed; c == nil || !c.Global || c.Sites != 3 || c.Faults.String() != want {
		t.Fatalf("spec = %+v, want a global 3-site run under %s", c, want)
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

// TestLocalWriteSetsNeedPrimariesEverywhere: under local write sets a
// site without primaries would give its updates empty access sets, so
// the spec is rejected with an error naming the site and the counts.
func TestLocalWriteSetsNeedPrimariesEverywhere(t *testing.T) {
	const want = "workload: local write sets need primaries at every site, but site 4 of 8 holds none of the 4 objects"
	for _, spec := range []string{
		`{"mode": "distributed", "sites": 8, "dbSize": 4, "workload": {"count": 200}}`,
		`{"mode": "distributed", "global": true, "sites": 8, "dbSize": 4}`,
	} {
		if _, err := ParseSpec([]byte(spec)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", spec, err, want)
		}
	}
	// The sharded layout reads no write set locally; 4 objects over 8
	// sites run there.
	if _, err := ParseSpec([]byte(`{"mode": "distributed", "placement": "shard", "sites": 8, "dbSize": 4}`)); err != nil {
		t.Errorf("sharded 4 objects over 8 sites: %v", err)
	}
	if _, err := ParseSpec([]byte(`{"mode": "distributed", "sites": 8, "dbSize": 8}`)); err != nil {
		t.Errorf("8 objects over 8 sites: %v", err)
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
		// The fault plan is decoded as strictly as the rest of the spec
		// and checked against the cluster at parse time.
		`{"mode": "distributed", "faults": {"crashes": [{"site": 1, "at": 5, "dorp": 1}]}}`:          `unknown field "dorp"`,
		`{"mode": "distributed", "faults": {"crashes": [{"site": 3, "at": 5}]}}`:                     "crash 0: site 3 out of range",
		`{"mode": "distributed", "sites": 4, "faults": {"partitions": [{"group_a": [4], "at": 5}]}}`: "partition 0: site 4 out of range",
		`{"mode": "distributed", "faults": {"chosen": {"cuts": [{"site": -1, "at": 5}]}}}`:           "chosen cut 0: site -1 out of range",
	} {
		if _, err := ParseSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", spec, err, want)
		}
	}
	// A field only the other mode reads would be dropped by Run; the
	// error names it.
	otherMode := []struct{ spec, field string }{
		{`{"mode": "single", "global": true}`, "global"},
		{`{"mode": "single", "replicas": 3}`, "replicas"},
		{`{"mode": "single", "readQuorum": 2}`, "readQuorum"},
		{`{"mode": "single", "writeQuorum": 2}`, "writeQuorum"},
		{`{"mode": "single", "sites": 4}`, "sites"},
		{`{"mode": "single", "commDelayMs": 5}`, "commDelayMs"},
		{`{"mode": "single", "multiversion": true}`, "multiversion"},
		{`{"mode": "single", "failures": [{"site": 1, "atMs": 50}]}`, "failures"},
		{`{"mode": "single", "faults": {}}`, "faults"},
		{`{"mode": "single", "placement": "shard"}`, "placement"},
		{`{"mode": "single", "workload": {"localityProb": 0.5}}`, "workload.localityProb"},
		{`{"mode": "distributed", "protocol": "HP", "traceEvents": 50, "wal": true}`, "protocol"},
		{`{"mode": "distributed", "ioPerObjMs": 20}`, "ioPerObjMs"},
		{`{"mode": "distributed", "memoryResident": true}`, "memoryResident"},
		{`{"mode": "distributed", "bufferPages": 10}`, "bufferPages"},
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
	// The run configs no longer declare these keys, which the mode named
	// here once took; the error names the key.
	removed := []struct{ spec, key string }{
		{`{"mode": "single", "ioDisks": 2}`, "ioDisks"},
		{`{"mode": "single", "workload": {"periodicFrac": 0.3, "periodMs": 100}}`, "periodMs"},
		{`{"mode": "distributed", "siteSpeed": [1, 2, 1]}`, "siteSpeed"},
		{`{"mode": "distributed", "placement": "shard", "hashShards": true}`, "hashShards"},
		{`{"mode": "distributed", "applyPerObjMs": 5}`, "applyPerObjMs"},
		{`{"mode": "distributed", "multiversion": true, "snapshotLagMs": 50}`, "snapshotLagMs"},
	}
	for _, c := range removed {
		_, err := ParseSpec([]byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown field %q", c.key)) {
			t.Errorf("%s: error %v, want one naming the unknown field %q", c.spec, err, c.key)
		}
	}
}

// TestSpecKeys pins the keys each mode's spec accepts: "mode", the json
// keys of its run config, and a nested config's keys as
// "outer.inner". A key added to or dropped from a run config shows up
// here as a diff.
func TestSpecKeys(t *testing.T) {
	workload := []string{"workload", "workload.burstFactor", "workload.burstOffMs", "workload.burstOnMs",
		"workload.count", "workload.localityProb", "workload.meanInterarrivalMs", "workload.meanSize",
		"workload.periodicFrac", "workload.readOnlyFrac", "workload.seed", "workload.slackMax", "workload.slackMin"}
	recording := []string{"audit", "journal", "maxRawRecords", "metrics", "metricsIntervalMs", "recordHistory",
		"timelineMaxWindows", "timelineWindowMs"}
	for _, c := range []struct {
		mode string
		cfg  any
		want []string
	}{
		{"single", SingleSiteConfig{}, append(append([]string{"bufferPages", "checkpointEveryMs", "cpuPerObjMs",
			"dbSize", "ioPerObjMs", "memoryResident", "mode", "protocol", "traceEvents", "wal"}, workload...), recording...)},
		{"distributed", DistributedConfig{}, append(append([]string{"commDelayMs", "cpuPerObjMs", "dbSize",
			"failures", "failures.atMs", "failures.recoverAtMs", "failures.site", "faults", "global", "mode",
			"multiversion", "placement", "protocol", "readQuorum", "replicas", "sites", "writeQuorum"},
			workload...), recording...)},
	} {
		got := append(specKeys(reflect.TypeOf(c.cfg), ""), "mode")
		if c.mode == "distributed" {
			// ParseSpec reads "protocol" beside the config, which has
			// no such field: a distributed run is always C.
			got = append(got, "protocol")
		}
		slices.Sort(got)
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s spec keys:\n got  %q\n want %q", c.mode, got, c.want)
		}
	}
}

// specKeys lists the json keys of the struct type t, descending into
// the fields (or slice elements) of t's own package's struct types.
func specKeys(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "" || name == "-" {
			continue
		}
		keys = append(keys, prefix+name)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && ft.PkgPath() == t.PkgPath() {
			keys = append(keys, specKeys(ft, prefix+name+".")...)
		}
	}
	return keys
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
