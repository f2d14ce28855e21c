package rtlock_test

// Fuzzing for the JSON run-specification parser: arbitrary input must be
// rejected with an error or produce a validated spec — never a panic —
// and every accepted spec must survive a marshal/re-parse round trip.

import (
	"encoding/json"
	"reflect"
	"testing"

	"rtlock"
)

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
	f.Add([]byte(`{"mode":"single","cpuPerObjMs":1.001,"workload":{"burstFactor":2,"burstOnMs":0.5,"burstOffMs":3}}`))
	f.Add([]byte(`{"mode":"distributed","commDelayMs":2.5,"failures":[{"site":2,"atMs":1.0004,"recoverAtMs":9}],"siteSpeed":[]}`))
	f.Add([]byte(`{"mode":"distributed","failures":[{"site":3,"atMs":5}]}`))
	f.Add([]byte(`{"mode":"single","workload":{"meanSizze":3}}`))
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
		if (s.Single == nil) == (s.Distributed == nil) {
			t.Fatalf("accepted spec selects both run configs or neither: %+v", s)
		}
		var w rtlock.WorkloadConfig
		if s.Single != nil {
			if w = s.Single.Workload; w.LocalityProb != 0 {
				t.Fatalf("accepted single spec with localityProb %v", w.LocalityProb)
			}
		} else if w = s.Distributed.Workload; s.Distributed.Placement != "" {
			if _, err := rtlock.ParsePlacementPolicy(s.Distributed.Placement); err != nil {
				t.Fatalf("accepted spec with unparseable placement %q", s.Distributed.Placement)
			}
		}
		if w.ReadOnlyFrac < 0 || w.ReadOnlyFrac > 1 || w.LocalityProb < 0 || w.LocalityProb > 1 {
			t.Fatalf("accepted spec with readOnlyFrac %v, localityProb %v", w.ReadOnlyFrac, w.LocalityProb)
		}
		// Re-encoded as its mode and config, an accepted spec re-parses
		// to the same config: every key is a config field, and the
		// millisecond durations round-trip to the tick.
		var doc any = struct {
			Mode string `json:"mode"`
			*rtlock.SingleSiteConfig
		}{"single", s.Single}
		if s.Distributed != nil {
			doc = struct {
				Mode string `json:"mode"`
				*rtlock.DistributedConfig
			}{"distributed", s.Distributed}
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		again, err := rtlock.ParseSpec(out)
		if err != nil {
			t.Fatalf("accepted spec does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("re-parsed spec differs: %+v vs %+v\n%s", s, again, out)
		}
	})
}
