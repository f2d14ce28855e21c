package stats

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rtlock/internal/sim"
)

// TestEmptyRunGuards pins the zero-horizon/empty-run behavior of every
// aggregate: 0, never NaN, Inf, or a panic.
func TestEmptyRunGuards(t *testing.T) {
	empty := NewMonitor()
	zeroHorizon := NewMonitor()
	zeroHorizon.Add(TxRecord{ID: 1, Outcome: Committed, Size: 3}) // Finish stays 0
	missOnly := NewMonitor()
	missOnly.Add(TxRecord{ID: 1, Outcome: DeadlineMissed, Finish: sim.Time(5 * sim.Second)})
	for _, tc := range []struct {
		name string
		m    *Monitor
	}{
		{"empty", empty},
		{"zero-horizon", zeroHorizon},
		{"missed-only", missOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checks := []struct {
				what string
				got  float64
			}{
				{"MissedPct", tc.m.MissedPct()},
				{"Throughput", tc.m.Throughput()},
				{"AvgBlocked", float64(tc.m.AvgBlocked())},
				{"AvgResponse", float64(tc.m.AvgResponse())},
				{"ResponsePercentile(0.99)", float64(tc.m.ResponsePercentile(0.99))},
			}
			for _, c := range checks {
				if math.IsNaN(c.got) || math.IsInf(c.got, 0) {
					t.Errorf("%s = %v, want finite", c.what, c.got)
				}
			}
			if tc.m.Processed() == 0 {
				for _, c := range checks {
					if c.got != 0 {
						t.Errorf("%s = %v on empty monitor, want 0", c.what, c.got)
					}
				}
			}
			if got := tc.m.Summarize(); math.IsNaN(got.Throughput) || math.IsNaN(got.MissedPct) {
				t.Errorf("Summarize produced NaN: %+v", got)
			}
		})
	}
	if got := missOnly.MissedPct(); got != 100 {
		t.Errorf("missed-only MissedPct = %v, want 100", got)
	}
	if got := missOnly.Throughput(); got != 0 {
		t.Errorf("missed-only Throughput = %v, want 0 (no committed objects)", got)
	}
}

// TestSketchQuantileParity drives random durations through the sketch
// and checks every quantile stays within one bucket width of the exact
// nearest-rank answer.
func TestSketchQuantileParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch(sim.Millisecond, 4096)
	var exact []sim.Duration
	for i := 0; i < 5000; i++ {
		d := sim.Duration(rng.Int63n(int64(3 * sim.Second)))
		s.Observe(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*float64(len(exact)))) - 1
		want := exact[rank]
		got := s.Quantile(q)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > s.Width() {
			t.Errorf("q=%v: sketch %d vs exact %d, off by %d > width %d",
				q, got, want, diff, s.Width())
		}
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch(sim.Millisecond, 16)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %d, want 0", got)
	}
	s.Observe(0)
	s.Observe(0)
	if got := s.Quantile(1); got != 0 {
		t.Errorf("all-zero quantile = %d, want 0", got)
	}
	// Constant value on a bucket edge answers exactly.
	s.Reset()
	for i := 0; i < 10; i++ {
		s.Observe(5 * sim.Millisecond)
	}
	if got := s.Quantile(0.5); got != 5*sim.Millisecond {
		t.Errorf("constant-edge quantile = %d, want %d", got, 5*sim.Millisecond)
	}
	// Observations beyond the covered range answer with the max.
	s.Reset()
	s.Observe(100 * sim.Millisecond) // beyond 16 buckets of 1ms
	s.Observe(200 * sim.Millisecond)
	if got := s.Quantile(0.99); got != 200*sim.Millisecond {
		t.Errorf("overflow quantile = %d, want max %d", got, 200*sim.Millisecond)
	}
	if s.Count() != 2 || s.Sum() != 300*sim.Millisecond {
		t.Errorf("count/sum = %d/%d, want 2/%d", s.Count(), s.Sum(), 300*sim.Millisecond)
	}
	// Negative observations clamp to zero.
	s.Reset()
	s.Observe(-sim.Second)
	if got := s.Quantile(1); got != 0 {
		t.Errorf("negative observation quantile = %d, want 0", got)
	}
	// Reset clears everything.
	if s.Count() != 1 {
		t.Fatalf("count after reset+observe = %d, want 1", s.Count())
	}
	s.Reset()
	if s.Count() != 0 || s.Sum() != 0 || s.Max() != 0 || s.Quantile(1) != 0 {
		t.Error("Reset left state behind")
	}
}

// TestSketchResetMatchesFresh: Reset clears only the buckets in use, so
// after any mix of observations — zero, on an edge, mid-range, beyond
// the covered range — a reset sketch must equal a fresh one.
func TestSketchResetMatchesFresh(t *testing.T) {
	fresh := NewSketch(sim.Millisecond, 16)
	for _, obs := range [][]sim.Duration{
		nil,
		{0},
		{sim.Millisecond},
		{sim.Millisecond + 1, 7 * sim.Millisecond},
		{16 * sim.Millisecond},
		{3 * sim.Millisecond, 200 * sim.Millisecond},
		{-sim.Second, 15*sim.Millisecond + 1},
	} {
		s := NewSketch(sim.Millisecond, 16)
		for _, d := range obs {
			s.Observe(d)
		}
		s.Reset()
		if !reflect.DeepEqual(s, fresh) {
			t.Errorf("after %v: reset sketch %+v, want %+v", obs, s, fresh)
		}
	}
}

// synthRecord builds a deterministic record stream for cap tests.
func synthRecord(i int) TxRecord {
	r := TxRecord{
		ID:      int64(i + 1),
		Size:    1 + i%7,
		Arrival: sim.Time(i) * sim.Time(10*sim.Millisecond),
		Blocked: sim.Duration(i%13) * sim.Millisecond,

		Restarts: i % 3,
		Messages: i % 5,
	}
	r.Finish = r.Arrival.Add(sim.Duration(5+i%40) * sim.Millisecond)
	if i%4 == 0 {
		r.Outcome = DeadlineMissed
	} else {
		r.Outcome = Committed
	}
	return r
}

// TestMaxRawCapKeepsAggregatesExact proves the retention cap changes
// only what is retained: every streaming aggregate matches an uncapped
// monitor fed the same records, retention never exceeds the cap, and
// the percentile path degrades to the sketch within one bucket width.
func TestMaxRawCapKeepsAggregatesExact(t *testing.T) {
	const n, cap = 10000, 64
	full := NewMonitor()
	capped := NewMonitor()
	capped.SetMaxRaw(cap)
	for i := 0; i < n; i++ {
		r := synthRecord(i)
		full.Add(r)
		capped.Add(r)
		if got := capped.RawRetained(); got > cap {
			t.Fatalf("retained %d records, cap %d", got, cap)
		}
	}
	if capped.Processed() != full.Processed() || capped.CommittedCount() != full.CommittedCount() {
		t.Errorf("counts diverge: capped %d/%d vs full %d/%d",
			capped.Processed(), capped.CommittedCount(), full.Processed(), full.CommittedCount())
	}
	if capped.MissedPct() != full.MissedPct() {
		t.Errorf("MissedPct %v vs %v", capped.MissedPct(), full.MissedPct())
	}
	if capped.Throughput() != full.Throughput() {
		t.Errorf("Throughput %v vs %v", capped.Throughput(), full.Throughput())
	}
	if capped.AvgBlocked() != full.AvgBlocked() || capped.AvgResponse() != full.AvgResponse() {
		t.Errorf("means diverge: blocked %v/%v resp %v/%v",
			capped.AvgBlocked(), full.AvgBlocked(), capped.AvgResponse(), full.AvgResponse())
	}
	if capped.Restarts() != full.Restarts() || capped.Messages() != full.Messages() {
		t.Errorf("totals diverge")
	}
	if got, want := capped.RawDropped(), n-cap; got != want {
		t.Errorf("RawDropped = %d, want %d", got, want)
	}
	// Retained records are the most recent cap, by id.
	recs := capped.Records()
	if len(recs) != cap {
		t.Fatalf("Records len %d, want %d", len(recs), cap)
	}
	for i, r := range recs {
		if want := int64(n - cap + i + 1); r.ID != want {
			t.Fatalf("Records[%d].ID = %d, want %d (newest window)", i, r.ID, want)
		}
	}
	// Capped percentile comes from the sketch, within a bucket of exact.
	for _, q := range []float64{0.5, 0.99} {
		exact := full.ResponsePercentile(q)
		approx := capped.ResponsePercentile(q)
		diff := approx - exact
		if diff < 0 {
			diff = -diff
		}
		if diff > DefaultSketchWidth {
			t.Errorf("q=%v: capped percentile %d vs exact %d, off by %d", q, approx, exact, diff)
		}
	}
	// SetMaxRaw after the fact trims to the newest window.
	full.SetMaxRaw(10)
	if full.RawRetained() != 10 {
		t.Errorf("post-hoc trim retained %d, want 10", full.RawRetained())
	}
	if got := full.Records()[0].ID; got != int64(n-10+1) {
		t.Errorf("post-hoc trim kept oldest id %d, want %d", got, n-10+1)
	}
}

// TestMonitorAddSteadyStateAllocFree pins the bounded-memory claim at
// the allocation level: once the cap is reached, Add allocates nothing.
func TestMonitorAddSteadyStateAllocFree(t *testing.T) {
	m := NewMonitor()
	m.SetMaxRaw(32)
	for i := 0; i < 64; i++ {
		m.Add(synthRecord(i))
	}
	// AllocsPerRun truncates its average, so every measured call adds
	// four records: three commits and one missed deadline.
	i := 64
	allocs := testing.AllocsPerRun(250, func() {
		for range 4 {
			m.Add(synthRecord(i))
			i++
		}
	})
	if allocs != 0 {
		t.Errorf("four capped Monitor.Add calls allocate %.1f times, want 0", allocs)
	}
}

// TestSetMaxRawRecapKeepsNewest re-caps a monitor whose ring has
// wrapped: lowering the cap keeps the newest records, and after raising
// it later Adds still evict the oldest.
func TestSetMaxRawRecapKeepsNewest(t *testing.T) {
	for _, tc := range []struct {
		name       string
		recap      int
		wantRecap  []int64 // Records() IDs right after the re-cap
		more       int     // further Adds
		wantFinish []int64
	}{
		{"lower", 2, []int64{5, 6}, 1, []int64{6, 7}},
		{"raise", 6, []int64{3, 4, 5, 6}, 5, []int64{6, 7, 8, 9, 10, 11}},
		{"uncap", 0, []int64{3, 4, 5, 6}, 2, []int64{3, 4, 5, 6, 7, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor()
			m.SetMaxRaw(4)
			for i := 0; i < 6; i++ { // ids 1–6: the ring has wrapped
				m.Add(synthRecord(i))
			}
			m.SetMaxRaw(tc.recap)
			if got := recordIDs(m); !slices.Equal(got, tc.wantRecap) {
				t.Errorf("after SetMaxRaw(%d): ids %v, want %v", tc.recap, got, tc.wantRecap)
			}
			for i := 6; i < 6+tc.more; i++ {
				m.Add(synthRecord(i))
			}
			if got := recordIDs(m); !slices.Equal(got, tc.wantFinish) {
				t.Errorf("after %d more Adds: ids %v, want %v", tc.more, got, tc.wantFinish)
			}
			if got, want := m.RawDropped(), 6+tc.more-len(tc.wantFinish); got != want {
				t.Errorf("RawDropped = %d, want %d", got, want)
			}
		})
	}
}

func recordIDs(m *Monitor) []int64 {
	var ids []int64
	for _, r := range m.Records() {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestLateCapSketchMatchesEarlyCap: the sketch a late cap seeds from the
// retained records is the one a cap set before the run builds, so every
// percentile answers the same.
func TestLateCapSketchMatchesEarlyCap(t *testing.T) {
	const n, cap, late = 3000, 64, 500
	early := NewMonitor()
	early.SetMaxRaw(cap)
	capped := NewMonitor()
	for i := 0; i < n; i++ {
		if i == late {
			capped.SetMaxRaw(cap)
		}
		early.Add(synthRecord(i))
		capped.Add(synthRecord(i))
	}
	if early.RawDropped() != capped.RawDropped() || !slices.Equal(recordIDs(early), recordIDs(capped)) {
		t.Fatalf("retention differs: dropped %d vs %d", early.RawDropped(), capped.RawDropped())
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got, want := capped.ResponsePercentile(q), early.ResponsePercentile(q); got != want {
			t.Errorf("q=%v: late cap %d, early cap %d", q, got, want)
		}
	}
}

var monitorSink *Monitor

// TestUncappedMonitorHasNoSketch: an uncapped monitor reads no sketch,
// so it allocates none — not when it is made, and not as it is fed.
func TestUncappedMonitorHasNoSketch(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { monitorSink = NewMonitor() }); allocs != 1 {
		t.Errorf("NewMonitor allocates %.0f times, want 1 (the monitor itself)", allocs)
	}
	// The records are reserved up front, so what is measured is what Add
	// allocates beside them; one default sketch is 64 KB.
	const n = 1000
	m := NewMonitor()
	m.Reserve(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.Add(synthRecord(i))
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 64<<10 {
		t.Errorf("%d uncapped Adds allocated %d bytes, want under 64 KB", n, bytes)
	}
}
