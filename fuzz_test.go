package rtlock_test

// Fuzzing for the JSON run-specification parser: arbitrary input must be
// rejected with an error or produce a validated spec — never a panic —
// and every accepted spec must survive a marshal/re-parse round trip.

import (
	"encoding/json"
	"testing"

	"rtlock"
)

// otherModeKeys names, by mode, the JSON fields only the other mode
// reads.
var otherModeKeys = map[string][]string{
	"single": {"placement", "global", "hashShards", "replicas", "readQuorum", "writeQuorum", "sites",
		"commDelayMs", "applyPerObjMs", "multiversion", "snapshotLagMs", "failures", "siteSpeed"},
	"distributed": {"ioPerObjMs", "memoryResident", "bufferPages", "ioDisks", "wal", "checkpointEveryMs", "traceEvents"},
}

func FuzzConfig(f *testing.F) {
	f.Add([]byte(`{"mode":"single","protocol":"C","workload":{"count":50,"meanSize":8}}`))
	f.Add([]byte(`{"mode":"single","protocol":"HP","dbSize":100,"wal":true,"audit":true}`))
	f.Add([]byte(`{"mode":"distributed","global":true,"sites":3,"workload":{"seed":2,"readOnlyFrac":0.5}}`))
	f.Add([]byte(`{"mode":"distributed","multiversion":true,"failures":[{"site":1,"atMs":50}]}`))
	f.Add([]byte(`{"mode":"distributed","placement":"shard","hashShards":true,"sites":4,"workload":{"localityProb":0.7}}`))
	f.Add([]byte(`{"mode":"distributed","placement":"quorum","replicas":3,"readQuorum":2,"writeQuorum":2}`))
	f.Add([]byte(`{"mode":"distributed","placement":"primary","sites":8,"workload":{"localityProb":1}}`))
	f.Add([]byte(`{"mode":"single","placement":"shard"}`))
	f.Add([]byte(`{"mode":"single","sites":4,"workload":{"localityProb":0.5}}`))
	f.Add([]byte(`{"mode":"distributed","protocol":"HP","traceEvents":50,"wal":true}`))
	f.Add([]byte(`{"mode":"distributed","protocol":"C","ioPerObjMs":20}`))
	f.Add([]byte(`{"mode":"distributed","placement":"bogus"}`))
	f.Add([]byte(`{"mode":"distributed","workload":{"localityProb":1.5}}`))
	f.Add([]byte(`{"mode":"nope"}`))
	f.Add([]byte(`{"mode":"single","protocol":"ZZ"}`))
	f.Add([]byte(`{"mode":"single","workload":{"readOnlyFrac":2}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := rtlock.ParseSpec(data)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSpec returned both a spec and error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("ParseSpec returned nil spec without error")
		}
		if s.Mode != "single" && s.Mode != "distributed" {
			t.Fatalf("accepted spec with mode %q", s.Mode)
		}
		if ro := s.Workload.ReadOnlyFrac; ro < 0 || ro > 1 {
			t.Fatalf("accepted spec with readOnlyFrac %v", ro)
		}
		if lp := s.Workload.LocalityProb; lp < 0 || lp > 1 {
			t.Fatalf("accepted spec with localityProb %v", lp)
		}
		if s.Placement != "" {
			if _, err := rtlock.ParsePlacementPolicy(s.Placement); err != nil {
				t.Fatalf("accepted spec with unparseable placement %q", s.Placement)
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		// Run reads one mode's fields, so an accepted spec sets none of
		// the other's: every zero field is omitted from out.
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(out, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range otherModeKeys[s.Mode] {
			if _, set := keys[k]; set {
				t.Fatalf("accepted %s spec setting %q: %s", s.Mode, k, out)
			}
		}
		if s.Mode == "single" && s.Workload.LocalityProb != 0 {
			t.Fatalf("accepted single spec setting workload.localityProb: %s", out)
		}
		if s.Mode == "distributed" && s.Protocol != "" && rtlock.Protocol(s.Protocol) != rtlock.Ceiling {
			t.Fatalf("accepted distributed spec with protocol %q", s.Protocol)
		}
		if _, err := rtlock.ParseSpec(out); err != nil {
			t.Fatalf("accepted spec does not re-parse: %v\n%s", err, out)
		}
	})
}
