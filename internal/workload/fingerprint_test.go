package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rtlock/internal/db"
	"rtlock/internal/place"
	"rtlock/internal/sim"
)

// loadFingerprint hashes every field of a generated load that reaches a
// simulation: identity, kind, timing, home site, access sequence and
// explicit priority.
func loadFingerprint(txs []*Txn) string {
	h := sha256.New()
	for _, t := range txs {
		fmt.Fprintf(h, "%d %d %t %d %d %d %d %d:", t.ID, t.Kind, t.Periodic, t.Arrival, t.Deadline,
			t.Home, t.Prio.Deadline, t.Prio.TxID)
		for _, op := range t.Ops {
			fmt.Fprintf(h, "%d/%d,", op.Obj, op.Mode)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadFingerprints pins the generator's output, draw for draw, on
// every object-selection path: any change to how the random stream is
// consumed moves a hash. The hashes were recorded before the access-set
// draw was rewritten and must never be re-recorded by a speed-up.
func TestLoadFingerprints(t *testing.T) {
	catalog := func(sites, objects int) *db.Catalog {
		c, err := db.NewCatalog(sites, objects)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shard, err := place.NewSharded(4, 1000, place.RangePartition)
	if err != nil {
		t.Fatal(err)
	}
	shardCat, err := db.NewCatalogWithPlacement(shard)
	if err != nil {
		t.Fatal(err)
	}
	base := func(cat *db.Catalog, meanSize int) Params {
		return Params{
			Seed: 7, Catalog: cat, Count: 2000, MeanInterarrival: 30 * sim.Millisecond,
			MeanSize: meanSize, PerObjCost: 10 * sim.Millisecond, SlackMin: 4, SlackMax: 8,
		}
	}
	cases := []struct {
		name string
		p    func() Params
		want string
	}{
		{"paper-db200", func() Params {
			p := base(catalog(1, 200), 10)
			p.MeanInterarrival, p.PerObjCost = 450*sim.Millisecond, 30*sim.Millisecond
			return p
		}, "14cf17c156f430e25f4c351bcd7e17e87d68ea139de553c037e1ffb498283071"},
		{"stream-db10000-bursts", func() Params {
			p := base(catalog(1, 10000), 4)
			p.MeanInterarrival, p.PerObjCost = 6*sim.Millisecond, sim.Millisecond
			p.BurstFactor, p.BurstOn, p.BurstOff = 3, 2*sim.Second, 8*sim.Second
			return p
		}, "6d9752800c11350c4e36d27fea52de7bc8baf45f9188c7bf7983349f50564926"},
		{"local-write-sets-3-sites", func() Params {
			p := base(catalog(3, 200), 6)
			p.ReadOnlyFrac, p.LocalWriteSets = 0.5, true
			return p
		}, "52acc4b8499f800ac53517dd8aaa184630de7ec1e64f0d583a0ca4e89a474073"},
		{"hotspot", func() Params {
			p := base(catalog(1, 500), 10)
			p.HotspotFrac, p.HotspotProb = 0.1, 0.8
			return p
		}, "b66c9085566c996283edcdf8d3d0ba2cc33e947d8f88e4403b7e0d3bd414c7c9"},
		{"locality-shard-4-sites", func() Params {
			p := base(shardCat, 6)
			p.ReadOnlyFrac, p.LocalityProb = 0.3, 0.7
			return p
		}, "1cbda8fab348e70c463794109005f5452de91cafacf30a7bb775f128ffcf186d"},
		{"periodic-fcfs", func() Params {
			p := base(catalog(1, 300), 6)
			p.ReadOnlyFrac, p.PeriodicFrac, p.Period = 0.2, 0.3, 200*sim.Millisecond
			p.Policy = PriorityFCFS
			return p
		}, "42af72d2922848bb7de705f01bf436d11e5084aaed4faa8552108af87453cb63"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			txs, err := Generate(c.p())
			if err != nil {
				t.Fatal(err)
			}
			if got := loadFingerprint(txs); got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
