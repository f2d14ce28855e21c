// Package db models the database the transactions operate on: the object
// catalog, the assignment of primary copies to sites, full replication
// for the local-ceiling approach, and per-site stores with versioned
// values so replica staleness (the paper's "temporal inconsistency") can
// be measured.
package db

import (
	"fmt"
	"sync"

	"rtlock/internal/core"
	"rtlock/internal/place"
	"rtlock/internal/sim"
)

// SiteID identifies a site (node) in the distributed system.
type SiteID int

// Catalog describes the database layout: how many objects exist and which
// site holds each copy. The object→site mapping and replica policy live
// in the embedded placement (internal/place); the default is range
// partitioning — contiguous ranges per site, which makes "the objects of
// site s" easy to reason about in workloads and tests.
type Catalog struct {
	sites     int
	objects   int
	placement place.Map
	// primaries lists each site's primary objects, ascending.
	primaries [][]core.ObjectID
	// replicas lists each object's copies, primary first, built by the
	// first Replicas call.
	replicasOnce sync.Once
	replicas     [][]SiteID
}

func newCatalog(pm place.Map) *Catalog {
	c := &Catalog{sites: pm.Sites(), objects: pm.Objects(), placement: pm,
		primaries: make([][]core.ObjectID, pm.Sites())}
	// Count first, so the partitions share one exactly sized array.
	n := make([]int, c.sites)
	for i := range c.objects {
		n[pm.Primary(i)]++
	}
	all := make([]core.ObjectID, c.objects)
	for s := range c.primaries {
		c.primaries[s], all = all[:0:n[s]], all[n[s]:]
	}
	for i := range c.objects {
		s := pm.Primary(i)
		c.primaries[s] = append(c.primaries[s], core.ObjectID(i))
	}
	return c
}

// NewCatalog lays out objects across sites with the historical default
// placement: contiguous, nearly equal ranges; site i owns the i-th range
// as primary, every site replicates everything.
func NewCatalog(sites, objects int) (*Catalog, error) {
	if sites < 1 {
		return nil, fmt.Errorf("db: sites must be >= 1, got %d", sites)
	}
	if objects < 1 {
		return nil, fmt.Errorf("db: objects must be >= 1, got %d", objects)
	}
	pm, err := place.NewFull(sites, objects)
	if err != nil {
		return nil, err
	}
	return newCatalog(pm), nil
}

// NewCatalogWithPlacement lays out objects according to an explicit
// placement map.
func NewCatalogWithPlacement(pm place.Map) (*Catalog, error) {
	if pm == nil {
		return nil, fmt.Errorf("db: placement must not be nil")
	}
	return newCatalog(pm), nil
}

// Sites returns the number of sites.
func (c *Catalog) Sites() int { return c.sites }

// Objects returns the total number of data objects.
func (c *Catalog) Objects() int { return c.objects }

// Placement returns the object→site mapping and replica policy.
func (c *Catalog) Placement() place.Map { return c.placement }

// PrimarySite returns the site holding the primary copy of obj.
func (c *Catalog) PrimarySite(obj core.ObjectID) SiteID {
	return SiteID(c.placement.Primary(int(obj)))
}

// Replicas returns every site holding a copy of obj, primary first, in
// deterministic order. The slice is the catalog's own: callers must not
// modify it.
func (c *Catalog) Replicas(obj core.ObjectID) []SiteID {
	c.replicasOnce.Do(c.buildReplicas)
	return c.replicas[obj]
}

// buildReplicas lays every object's replica list out in one array.
func (c *Catalog) buildReplicas() {
	c.replicas = make([][]SiteID, c.objects)
	all := make([]SiteID, 0, c.objects*c.placement.ReplicaCount())
	for i := range c.replicas {
		from := len(all)
		for _, s := range c.placement.Replicas(i) {
			all = append(all, SiteID(s))
		}
		c.replicas[i] = all[from:len(all):len(all)]
	}
}

// ObjectsAt returns the primary objects of a site, in ascending order.
// The slice is the catalog's own: callers must not modify it.
func (c *Catalog) ObjectsAt(site SiteID) []core.ObjectID {
	if site < 0 || int(site) >= c.sites {
		return nil
	}
	return c.primaries[site]
}

// Version is one committed value of an object: a logical payload plus the
// commit time of the write that produced it, used to measure staleness.
type Version struct {
	// Value is the logical payload (a counter in the simulation).
	Value int64
	// WrittenAt is the virtual commit time of the producing write.
	WrittenAt sim.Time
	// Seq is a monotonically increasing version number per object.
	Seq int64
}

// Store holds one site's copies of data objects. In the local-ceiling
// approach every site stores all objects (the local primary copies plus
// replicated secondaries); in the global approach each site stores only
// its primaries.
type Store struct {
	site     SiteID
	versions map[core.ObjectID]Version
}

// NewStore returns an empty store for a site. Objects read before any
// write observe the zero Version.
func NewStore(site SiteID) *Store {
	return &Store{site: site, versions: make(map[core.ObjectID]Version)}
}

// Reset empties the store, keeping its memory.
func (s *Store) Reset() { clear(s.versions) }

// Site returns the owning site.
func (s *Store) Site() SiteID { return s.site }

// Read returns the current local version of obj.
func (s *Store) Read(obj core.ObjectID) Version {
	return s.versions[obj]
}

// Write installs a new version produced locally at time now, bumping the
// sequence number.
func (s *Store) Write(obj core.ObjectID, value int64, now sim.Time) Version {
	v := Version{Value: value, WrittenAt: now, Seq: s.versions[obj].Seq + 1}
	s.versions[obj] = v
	return v
}

// Install applies a replicated version from another site. Out-of-order
// deliveries are dropped: a version is installed only if its sequence
// number advances the copy, which keeps replicas monotone.
func (s *Store) Install(obj core.ObjectID, v Version) bool {
	if v.Seq <= s.versions[obj].Seq {
		return false
	}
	s.versions[obj] = v
	return true
}

// State exports the committed values as a plain map, for checkpointing.
func (s *Store) State() map[core.ObjectID]int64 {
	out := make(map[core.ObjectID]int64, len(s.versions))
	for obj, v := range s.versions {
		out[obj] = v.Value
	}
	return out
}

// Staleness returns how far the local copy of obj lags behind a reference
// version (typically the primary's): zero when up to date.
func (s *Store) Staleness(obj core.ObjectID, primary Version, now sim.Time) sim.Duration {
	local := s.versions[obj]
	if local.Seq >= primary.Seq {
		return 0
	}
	// The copy misses writes since primary.WrittenAt at the latest.
	return now.Sub(local.WrittenAt)
}
