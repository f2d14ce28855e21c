package db

import (
	"sort"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

// MVStore keeps a bounded history of versions per object, enabling the
// multi-version scheme the paper's §4 closes with: "If the system
// provides multiple versions of data objects, ensuring a temporally
// consistent view becomes a real-time scheduling problem in which the
// time lags in the distributed versions need to be controlled …
// transactions can read the proper versions of distributed data objects,
// and ensure that decisions are based on temporally consistent data."
//
// A reader asking for the state "as of" time t receives, for every
// object, the newest version written at or before t — a mutually
// consistent snapshot — instead of each object's latest (and possibly
// mutually inconsistent) copy.
type MVStore struct {
	site     SiteID
	keep     int
	versions map[core.ObjectID][]Version // ascending by Seq
}

// NewMVStore returns a store keeping up to keep versions per object
// (minimum 1).
func NewMVStore(site SiteID, keep int) *MVStore {
	if keep < 1 {
		keep = 1
	}
	return &MVStore{site: site, keep: keep, versions: make(map[core.ObjectID][]Version)}
}

// Reset empties the store, keeping each object's history buffer: an
// empty history reads as an unwritten object.
func (s *MVStore) Reset() {
	for obj, hist := range s.versions {
		s.versions[obj] = hist[:0]
	}
}

// Site returns the owning site.
func (s *MVStore) Site() SiteID { return s.site }

// Keep returns the per-object history bound.
func (s *MVStore) Keep() int { return s.keep }

// Write installs a new latest version produced locally at time now.
func (s *MVStore) Write(obj core.ObjectID, value int64, now sim.Time) Version {
	latest := s.Latest(obj)
	v := Version{Value: value, WrittenAt: now, Seq: latest.Seq + 1}
	s.append(obj, v)
	return v
}

// Install applies a replicated version, keeping history ordered and
// dropping versions that do not advance past what is already held.
func (s *MVStore) Install(obj core.ObjectID, v Version) bool {
	if v.Seq <= s.Latest(obj).Seq {
		return false
	}
	s.append(obj, v)
	return true
}

// Latest returns the newest local version of obj (zero Version if never
// written).
func (s *MVStore) Latest(obj core.ObjectID) Version {
	hist := s.versions[obj]
	if len(hist) == 0 {
		return Version{}
	}
	return hist[len(hist)-1]
}

// AsOf returns the newest version of obj written at or before t, and
// whether any such version exists. Reading every object AsOf the same t
// yields a temporally consistent snapshot.
func (s *MVStore) AsOf(obj core.ObjectID, t sim.Time) (Version, bool) {
	hist := s.versions[obj]
	// Find the last version with WrittenAt <= t.
	i := sort.Search(len(hist), func(i int) bool { return hist[i].WrittenAt > t })
	if i == 0 {
		return Version{}, false
	}
	return hist[i-1], true
}

// HistoryLen reports how many versions of obj are retained.
func (s *MVStore) HistoryLen(obj core.ObjectID) int { return len(s.versions[obj]) }

// FirstSeq returns the sequence number of the oldest retained version of
// obj (0 when no versions are retained). When it is at most 1, the
// implicit zero version — the state before any write — is still
// reconstructible.
func (s *MVStore) FirstSeq(obj core.ObjectID) int64 {
	hist := s.versions[obj]
	if len(hist) == 0 {
		return 0
	}
	return hist[0].Seq
}

// Interval returns the validity window [start, end) during which version
// seq of obj was the newest: from its write time until the next
// version's. seq 0 denotes "before any version" and is valid from the
// beginning of time until the first retained write. known is false when
// the version has been evicted from the bounded history, in which case
// nothing can be said.
func (s *MVStore) Interval(obj core.ObjectID, seq int64) (start, end sim.Time, known bool) {
	const (
		minTime = sim.Time(-1 << 62)
		maxTime = sim.Time(1<<62 - 1)
	)
	hist := s.versions[obj]
	if seq == 0 {
		if len(hist) == 0 {
			return minTime, maxTime, true
		}
		if hist[0].Seq == 1 {
			return minTime, hist[0].WrittenAt, true
		}
		// The first versions were evicted; the zero version's window
		// cannot be reconstructed.
		return 0, 0, false
	}
	for i, v := range hist {
		if v.Seq != seq {
			continue
		}
		end = maxTime
		if i+1 < len(hist) {
			end = hist[i+1].WrittenAt
		}
		return v.WrittenAt, end, true
	}
	return 0, 0, false
}

// append adds v as obj's newest version. Histories stay ordered by Seq;
// replicated installs always advance Seq (guarded by Install), local
// writes too. A history starts with room for a few versions, and an
// object written past those gets its full-length history in one step
// rather than by doubling; a full history shifts down in place, dropping
// its oldest version.
func (s *MVStore) append(obj core.ObjectID, v Version) {
	hist := s.versions[obj]
	switch {
	case len(hist) == s.keep:
		copy(hist, hist[1:])
		hist[len(hist)-1] = v
		return
	case hist == nil:
		hist = make([]Version, 0, min(firstVersions, s.keep))
	case len(hist) == cap(hist):
		hist = append(make([]Version, 0, s.keep), hist...)
	}
	s.versions[obj] = append(hist, v)
}

// firstVersions is the room a history starts with.
const firstVersions = 4
