package db

import (
	"testing"
	"testing/quick"

	"rtlock/internal/core"
	"rtlock/internal/place"
)

func TestCatalogValidation(t *testing.T) {
	if _, err := NewCatalog(0, 10); err == nil {
		t.Fatal("0 sites accepted")
	}
	if _, err := NewCatalog(3, 0); err == nil {
		t.Fatal("0 objects accepted")
	}
}

func TestCatalogPartition(t *testing.T) {
	c, err := NewCatalog(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 10 objects over 3 sites: sizes 4,3,3.
	want := map[SiteID]int{0: 4, 1: 3, 2: 3}
	for site, n := range want {
		if got := len(c.ObjectsAt(site)); got != n {
			t.Fatalf("site %d has %d objects, want %d", site, got, n)
		}
	}
}

func TestCatalogPartitionCoversAll(t *testing.T) {
	prop := func(sitesRaw, objsRaw uint8) bool {
		sites := int(sitesRaw%8) + 1
		objs := int(objsRaw%200) + 1
		c, err := NewCatalog(sites, objs)
		if err != nil {
			return false
		}
		seen := make(map[core.ObjectID]bool)
		for s := 0; s < sites; s++ {
			for _, obj := range c.ObjectsAt(SiteID(s)) {
				if seen[obj] {
					return false // object owned twice
				}
				seen[obj] = true
				if c.PrimarySite(obj) != SiteID(s) {
					return false // inconsistent mapping
				}
			}
		}
		return len(seen) == objs
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogBalance(t *testing.T) {
	prop := func(sitesRaw, objsRaw uint8) bool {
		sites := int(sitesRaw%8) + 1
		objs := int(objsRaw%200) + 1
		if objs < sites {
			return true
		}
		c, err := NewCatalog(sites, objs)
		if err != nil {
			return false
		}
		minN, maxN := objs, 0
		for s := 0; s < sites; s++ {
			n := len(c.ObjectsAt(SiteID(s)))
			if n < minN {
				minN = n
			}
			if n > maxN {
				maxN = n
			}
		}
		return maxN-minN <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogAccessors(t *testing.T) {
	c, err := NewCatalog(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sites() != 3 || c.Objects() != 12 {
		t.Fatalf("sites=%d objects=%d", c.Sites(), c.Objects())
	}
	// Out-of-range objects map to site 0 defensively.
	if c.PrimarySite(-1) != 0 || c.PrimarySite(999) != 0 {
		t.Fatal("out-of-range object did not default to site 0")
	}
}

func TestStoreSite(t *testing.T) {
	if NewStore(7).Site() != 7 {
		t.Fatal("store site accessor")
	}
}

func TestStoreVersioning(t *testing.T) {
	s := NewStore(0)
	if v := s.Read(1); v.Seq != 0 {
		t.Fatalf("fresh object version = %+v", v)
	}
	v1 := s.Write(1, 42, 100)
	if v1.Seq != 1 || v1.Value != 42 || v1.WrittenAt != 100 {
		t.Fatalf("v1 = %+v", v1)
	}
	v2 := s.Write(1, 43, 200)
	if v2.Seq != 2 {
		t.Fatalf("v2.Seq = %d", v2.Seq)
	}
	if got := s.Read(1); got != v2 {
		t.Fatalf("Read = %+v, want %+v", got, v2)
	}
}

func TestStoreInstallMonotone(t *testing.T) {
	primary := NewStore(0)
	replica := NewStore(1)
	v1 := primary.Write(5, 1, 10)
	v2 := primary.Write(5, 2, 20)
	// Deliver out of order: v2 then v1.
	if !replica.Install(5, v2) {
		t.Fatal("v2 install rejected")
	}
	if replica.Install(5, v1) {
		t.Fatal("stale v1 install accepted after v2")
	}
	if got := replica.Read(5); got != v2 {
		t.Fatalf("replica = %+v, want v2", got)
	}
}

func TestStoreStaleness(t *testing.T) {
	primary := NewStore(0)
	replica := NewStore(1)
	v1 := primary.Write(7, 1, 100)
	replica.Install(7, v1)
	if d := replica.Staleness(7, primary.Read(7), 500); d != 0 {
		t.Fatalf("up-to-date replica staleness = %d", d)
	}
	primary.Write(7, 2, 400)
	if d := replica.Staleness(7, primary.Read(7), 500); d != 400 {
		t.Fatalf("stale replica staleness = %d, want 400 (since local write at 100)", d)
	}
}

// TestCatalogReplicasView: Replicas is the placement's replica list,
// primary first, served from the catalog's own table without
// allocating.
func TestCatalogReplicasView(t *testing.T) {
	pm, err := place.NewQuorum(5, 40, place.HashPartition, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCatalogWithPlacement(pm)
	if err != nil {
		t.Fatal(err)
	}
	for obj := 0; obj < 40; obj++ {
		got, want := c.Replicas(core.ObjectID(obj)), pm.Replicas(obj)
		if len(got) != len(want) || got[0] != c.PrimarySite(core.ObjectID(obj)) {
			t.Fatalf("object %d: replicas %v, placement says %v", obj, got, want)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("object %d: replicas %v, placement says %v", obj, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Replicas(7) }); allocs != 0 {
		t.Fatalf("Replicas allocates %.1f times", allocs)
	}
}
