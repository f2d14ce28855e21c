package db

import (
	"testing"
	"testing/quick"

	"rtlock/internal/core"
	"rtlock/internal/sim"
)

func TestMVStoreLatest(t *testing.T) {
	s := NewMVStore(0, 4)
	if v := s.Latest(1); v.Seq != 0 {
		t.Fatalf("fresh latest = %+v", v)
	}
	s.Write(1, 10, 100)
	s.Write(1, 20, 200)
	if v := s.Latest(1); v.Seq != 2 || v.Value != 20 {
		t.Fatalf("latest = %+v", v)
	}
}

func TestMVStoreAsOf(t *testing.T) {
	s := NewMVStore(0, 4)
	s.Write(1, 10, 100)
	s.Write(1, 20, 200)
	s.Write(1, 30, 300)
	if _, ok := s.AsOf(1, 50); ok {
		t.Fatal("version exists before first write")
	}
	if v, ok := s.AsOf(1, 100); !ok || v.Value != 10 {
		t.Fatalf("AsOf(100) = %+v, %t", v, ok)
	}
	if v, ok := s.AsOf(1, 250); !ok || v.Value != 20 {
		t.Fatalf("AsOf(250) = %+v, %t", v, ok)
	}
	if v, ok := s.AsOf(1, 999); !ok || v.Value != 30 {
		t.Fatalf("AsOf(999) = %+v, %t", v, ok)
	}
}

func TestMVStoreHistoryBound(t *testing.T) {
	s := NewMVStore(0, 3)
	for i := 1; i <= 10; i++ {
		s.Write(2, int64(i), sim.Time(i*100))
	}
	if n := s.HistoryLen(2); n != 3 {
		t.Fatalf("history len = %d, want 3", n)
	}
	// Old versions are gone; AsOf before the retained window fails.
	if _, ok := s.AsOf(2, 400); ok {
		t.Fatal("evicted version still readable")
	}
	if v, ok := s.AsOf(2, 950); !ok || v.Value != 9 {
		t.Fatalf("AsOf(950) = %+v, %t", v, ok)
	}
}

func TestMVStoreInstallMonotone(t *testing.T) {
	primary := NewMVStore(0, 4)
	replica := NewMVStore(1, 4)
	v1 := primary.Write(5, 1, 10)
	v2 := primary.Write(5, 2, 20)
	if !replica.Install(5, v2) {
		t.Fatal("v2 rejected")
	}
	if replica.Install(5, v1) {
		t.Fatal("stale v1 accepted after v2")
	}
	if replica.Latest(5) != v2 {
		t.Fatalf("latest = %+v", replica.Latest(5))
	}
}

func TestMVStoreAccessors(t *testing.T) {
	s := NewMVStore(3, 5)
	if s.Site() != 3 || s.Keep() != 5 {
		t.Fatalf("site=%d keep=%d", s.Site(), s.Keep())
	}
}

func TestMVStoreFirstSeq(t *testing.T) {
	s := NewMVStore(0, 2)
	if s.FirstSeq(1) != 0 {
		t.Fatalf("empty FirstSeq = %d", s.FirstSeq(1))
	}
	s.Write(1, 10, 100)
	if s.FirstSeq(1) != 1 {
		t.Fatalf("FirstSeq = %d", s.FirstSeq(1))
	}
	s.Write(1, 20, 200)
	s.Write(1, 30, 300) // evicts seq 1 (keep 2)
	if s.FirstSeq(1) != 2 {
		t.Fatalf("FirstSeq after eviction = %d", s.FirstSeq(1))
	}
}

func TestMVStoreInterval(t *testing.T) {
	s := NewMVStore(0, 8)
	// Empty object: the zero version is valid forever.
	if start, end, known := s.Interval(5, 0); !known || start >= end {
		t.Fatalf("empty interval = %v %v %v", start, end, known)
	}
	s.Write(5, 1, 100)
	s.Write(5, 2, 200)
	// Zero version: until the first write.
	if _, end, known := s.Interval(5, 0); !known || end != 100 {
		t.Fatalf("zero-version interval end = %v known=%v", end, known)
	}
	// Middle version: [100, 200).
	if start, end, known := s.Interval(5, 1); !known || start != 100 || end != 200 {
		t.Fatalf("v1 interval = [%v,%v) known=%v", start, end, known)
	}
	// Latest version: open-ended.
	if start, end, known := s.Interval(5, 2); !known || start != 200 || end <= start {
		t.Fatalf("v2 interval = [%v,%v) known=%v", start, end, known)
	}
	// Unknown sequence number.
	if _, _, known := s.Interval(5, 9); known {
		t.Fatal("nonexistent version reported known")
	}
}

func TestMVStoreIntervalEvictedZero(t *testing.T) {
	s := NewMVStore(0, 1)
	s.Write(7, 1, 100)
	s.Write(7, 2, 200) // seq 1 evicted
	if _, _, known := s.Interval(7, 0); known {
		t.Fatal("zero version reconstructible after eviction of v1")
	}
	if _, _, known := s.Interval(7, 1); known {
		t.Fatal("evicted version reported known")
	}
}

func TestMVStoreMinimumKeep(t *testing.T) {
	s := NewMVStore(0, 0)
	if s.Keep() != 1 {
		t.Fatalf("keep = %d, want clamped to 1", s.Keep())
	}
}

func TestPropMVStoreAsOfNeverNewer(t *testing.T) {
	prop := func(writesRaw []uint8, probe uint8) bool {
		s := NewMVStore(0, 8)
		now := sim.Time(0)
		for i, w := range writesRaw {
			now = now.Add(sim.Duration(w%50) + 1)
			s.Write(core.ObjectID(1), int64(i), now)
		}
		t := sim.Time(probe) * 10
		v, ok := s.AsOf(1, t)
		if !ok {
			return true
		}
		return v.WrittenAt <= t
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMVStoreFullHistoryWriteZeroAlloc: once an object's history holds
// keep versions, a write drops the oldest in place, and the history
// still holds the newest keep versions, oldest first. Each measured run
// is a whole cycle of 2×keep writes: dropping from the front of the
// slice instead would reallocate about once per keep writes, which a
// per-write average rounds away.
func TestMVStoreFullHistoryWriteZeroAlloc(t *testing.T) {
	const keep = 4
	s := NewMVStore(0, keep)
	for i := int64(1); i <= keep; i++ {
		s.Write(1, i, sim.Time(i))
	}
	now := sim.Time(keep)
	if allocs := testing.AllocsPerRun(20, func() {
		for range 2 * keep {
			now++
			s.Write(1, int64(now), now)
		}
	}); allocs != 0 {
		t.Fatalf("a cycle of %d writes on a full history allocates %.0f times", 2*keep, allocs)
	}
	if n := s.HistoryLen(1); n != keep {
		t.Fatalf("history holds %d versions, want %d", n, keep)
	}
	for i, v := range s.versions[1] {
		if want := now - keep + 1 + sim.Time(i); v.WrittenAt != want || v.Seq != int64(want) {
			t.Fatalf("version %d = %+v, want the write at %d", i, v, want)
		}
	}
}
