package workload

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/place"
	"rtlock/internal/sim"
)

func mustCatalog(sites, objects int) *db.Catalog {
	cat, err := db.NewCatalog(sites, objects)
	if err != nil {
		panic(err)
	}
	return cat
}

func streamParams(count int) Params {
	return Params{
		Seed:             42,
		Count:            count,
		MeanInterarrival: 5 * sim.Millisecond,
		MeanSize:         4,
		ReadOnlyFrac:     0.3,
		SlackMin:         2,
		SlackMax:         8,
		PerObjCost:       sim.Millisecond,
		PeriodicFrac:     0.2,
		Period:           50 * sim.Millisecond,
		Catalog:          mustCatalog(1, 500),
	}
}

// TestStreamMatchesGenerate pins the streaming refactor: draining a
// Stream must reproduce Generate transaction by transaction, since
// every existing golden journal depends on the draw sequence.
func TestStreamMatchesGenerate(t *testing.T) {
	p := streamParams(500)
	want, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Remaining(); got != 500 {
		t.Fatalf("Remaining = %d, want 500", got)
	}
	for i, w := range want {
		g := s.Next()
		if g == nil {
			t.Fatalf("Next returned nil at %d", i)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tx %d: stream %+v != generate %+v", i, g, w)
		}
	}
	if g := s.Next(); g != nil {
		t.Fatalf("Next past Count returned %+v", g)
	}
	if got := s.Remaining(); got != 0 {
		t.Fatalf("Remaining after drain = %d, want 0", got)
	}
}

// TestStreamNextAllocs gates a warm Next at no allocation of its own:
// the transactions and their operations come from per-chunk arenas, so
// AllocsPerRun's truncated average is 0 unless something allocates per
// transaction (a database-sized scratch, a partition or set, the
// transaction or its operations one by one). The locality path builds
// its home site's Zipf once, while warming up.
func TestStreamNextAllocs(t *testing.T) {
	shard, err := place.NewSharded(4, 1000, place.RangePartition)
	if err != nil {
		t.Fatal(err)
	}
	shardCat, err := db.NewCatalogWithPlacement(shard)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*Params)
	}{
		{"uniform", func(p *Params) {}},
		{"db10000", func(p *Params) {
			p.Catalog = mustCatalog(1, 10000)
			p.BurstFactor, p.BurstOn, p.BurstOff = 3, 2*sim.Second, 8*sim.Second
		}},
		{"local-write-sets", func(p *Params) {
			p.Catalog = mustCatalog(3, 300)
			p.LocalWriteSets = true
		}},
		{"locality", func(p *Params) {
			p.Catalog, p.LocalityProb = shardCat, 0.7
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := streamParams(1 << 30)
			p.PeriodicFrac = 0
			c.edit(&p)
			s, err := NewStream(p)
			if err != nil {
				t.Fatal(err)
			}
			for range 200 {
				s.Next()
			}
			if allocs := testing.AllocsPerRun(2000, func() { s.Next() }); allocs != 0 {
				t.Fatalf("warm Next allocates %.0f times per transaction, want 0", allocs)
			}
		})
	}
	// The access-set draw under Next allocates nothing of its own: one
	// allocation per draw would hide in Next's truncated average.
	g, err := newGenerator(streamParams(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(2000, func() { g.pickIndexes(500, 8) }); allocs != 0 {
		t.Fatalf("a warm access-set draw allocates %.2f times, want 0", allocs)
	}
}

func TestBurstValidation(t *testing.T) {
	p := streamParams(10)
	p.BurstFactor = 0.5
	if _, err := Generate(p); err == nil {
		t.Fatal("burst factor < 1 accepted")
	}
	p.BurstFactor = 3
	if _, err := Generate(p); err == nil {
		t.Fatal("burst factor without phases accepted")
	}
	p.BurstOn, p.BurstOff = 20*sim.Millisecond, 80*sim.Millisecond
	if _, err := Generate(p); err != nil {
		t.Fatalf("valid burst config rejected: %v", err)
	}
}

// TestBurstModulatesArrivalRate checks that the on-phase arrival rate
// exceeds the off-phase rate, and that the burst clock is a
// deterministic function of virtual time (two drains agree exactly).
func TestBurstModulatesArrivalRate(t *testing.T) {
	p := streamParams(20000)
	p.BurstFactor = 5
	p.BurstOn = 100 * sim.Millisecond
	p.BurstOff = 400 * sim.Millisecond
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bursty load not deterministic")
	}
	cycle := p.BurstOn + p.BurstOff
	var on, off int
	for _, tx := range a {
		if sim.Duration(int64(tx.Arrival)%int64(cycle)) < p.BurstOn {
			on++
		} else {
			off++
		}
	}
	// The on phase is 1/5 of the cycle but runs 5x the rate, so it
	// should hold about half the arrivals — far more than the 20% a
	// uniform process would put there.
	if frac := float64(on) / float64(on+off); frac < 0.35 {
		t.Fatalf("on-phase arrival fraction %.2f, want bursty (> 0.35)", frac)
	}
}

// TestBurstOffLeavesLoadUnchanged pins that BurstFactor <= 1 draws
// nothing extra from the random stream: the load is byte-identical to
// the same parameters without burst fields.
func TestBurstOffLeavesLoadUnchanged(t *testing.T) {
	base, err := Generate(streamParams(1000))
	if err != nil {
		t.Fatal(err)
	}
	p := streamParams(1000)
	p.BurstFactor = 1
	p.BurstOn, p.BurstOff = sim.Second, sim.Second
	same, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, same) {
		t.Fatal("BurstFactor = 1 changed the generated load")
	}
}

// TestChunkAheadMatchesGenerate pins the chunk-ahead hand-off: whatever
// the parameters and however the count falls against the chunk length,
// Next returns Generate's load transaction for transaction, and
// Remaining counts the transactions handed out.
func TestChunkAheadMatchesGenerate(t *testing.T) {
	shard, err := place.NewSharded(4, 1000, place.RangePartition)
	if err != nil {
		t.Fatal(err)
	}
	shardCat, err := db.NewCatalogWithPlacement(shard)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*Params)
	}{
		{"db200", func(p *Params) { p.Catalog = mustCatalog(1, 200) }},
		{"db10000", func(p *Params) { p.Catalog = mustCatalog(1, 10_000) }},
		{"periodic-implicit", func(p *Params) { p.PeriodicFrac, p.ImplicitDeadlines = 0.5, true }},
		{"hotspot", func(p *Params) { p.HotspotFrac, p.HotspotProb = 0.1, 0.8 }},
		{"local-write-sets", func(p *Params) {
			p.Catalog = mustCatalog(3, 300)
			p.LocalWriteSets = true
		}},
		{"locality", func(p *Params) { p.Catalog, p.LocalityProb = shardCat, 0.7 }},
		{"bursts", func(p *Params) {
			p.BurstFactor, p.BurstOn, p.BurstOff = 3, 20*sim.Millisecond, 80*sim.Millisecond
		}},
		{"edf", func(p *Params) { p.Policy = PriorityEDF }},
		{"fcfs", func(p *Params) { p.Policy = PriorityFCFS }},
		{"random", func(p *Params) { p.Policy = PriorityRandom }},
		{"slack", func(p *Params) { p.Policy = PrioritySlack }},
	}
	for _, c := range cases {
		for _, count := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 1000} {
			p := streamParams(count)
			c.edit(&p)
			want, genErr := Generate(p)
			s, err := NewStream(p)
			if count == 0 {
				if genErr == nil || err == nil {
					t.Fatalf("%s: count 0 accepted (Generate err %v, NewStream err %v)", c.name, genErr, err)
				}
				continue
			}
			if genErr != nil || err != nil {
				t.Fatalf("%s/%d: Generate err %v, NewStream err %v", c.name, count, genErr, err)
			}
			for i, w := range want {
				if got := s.Remaining(); got != count-i {
					t.Fatalf("%s/%d: Remaining before tx %d = %d, want %d", c.name, count, i, got, count-i)
				}
				if g := s.Next(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s/%d: tx %d: stream %+v != generate %+v", c.name, count, i, g, w)
				}
			}
			for range 2 {
				if g := s.Next(); g != nil {
					t.Fatalf("%s/%d: Next past Count returned %+v", c.name, count, g)
				}
				if got := s.Remaining(); got != 0 {
					t.Fatalf("%s/%d: Remaining after drain = %d, want 0", c.name, count, got)
				}
			}
		}
	}
}

// TestAbandonedStreamGoroutines checks that a stream dropped part way
// leaves no goroutine behind: the one generating its next chunk exits on
// its own once the chunk is sent.
func TestAbandonedStreamGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, k := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 500} {
		p := streamParams(1000)
		p.Catalog = mustCatalog(1, 10_000)
		s, err := NewStream(p)
		if err != nil {
			t.Fatal(err)
		}
		for range k {
			s.Next()
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("after %d of 1000: %d goroutines linger, baseline %d", k, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestInArrivalOrder checks the slice form of Next: a sorted slice
// comes back as is, an unsorted one in stable arrival order (the order
// its arrivals fire), and the caller's slice keeps its order.
func TestInArrivalOrder(t *testing.T) {
	tx := func(id int64, at sim.Time) *Txn { return &Txn{ID: id, Arrival: at} }
	txs := []*Txn{tx(1, 30), tx(2, 10), tx(3, 30), tx(4, 10), tx(5, 20)}
	var got []int64
	for _, t := range InArrivalOrder(txs) {
		got = append(got, t.ID)
	}
	if want := []int64{2, 4, 5, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered %v, want %v", got, want)
	}
	if txs[0].ID != 1 || txs[4].ID != 5 {
		t.Fatal("InArrivalOrder reordered the caller's slice")
	}
	sorted := []*Txn{tx(1, 10), tx(2, 10), tx(3, 20)}
	if got := InArrivalOrder(sorted); &got[0] != &sorted[0] {
		t.Fatal("InArrivalOrder copied a sorted slice")
	}
}

// TestArenaOpsDoNotAlias: transactions carved from one arena stay
// independent. Every transaction's operations have capacity equal to
// their length, so appending to one copies it and leaves its
// neighbour's operations as generated, across the chunk boundaries of a
// multi-chunk load; and no two transactions share operation slots.
func TestArenaOpsDoNotAlias(t *testing.T) {
	p := streamParams(3*chunkLen + 5)
	p.Catalog = mustCatalog(3, 300)
	p.LocalityProb = 0.5
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Op, len(txs))
	for i, tx := range txs {
		if cap(tx.Ops) != len(tx.Ops) {
			t.Fatalf("tx %d: ops capacity %d, length %d", tx.ID, cap(tx.Ops), len(tx.Ops))
		}
		want[i] = slices.Clone(tx.Ops)
	}
	for _, tx := range txs {
		tx.Ops = append(tx.Ops, Op{Obj: -1, Mode: core.Write})
	}
	for i, tx := range txs {
		if got := tx.Ops[:len(tx.Ops)-1]; !slices.Equal(got, want[i]) {
			t.Fatalf("tx %d: ops %v after appending to every transaction, generated %v", tx.ID, got, want[i])
		}
	}
	slots := map[*Op]int64{}
	for _, tx := range txs {
		for i := range tx.Ops {
			if other, dup := slots[&tx.Ops[i]]; dup {
				t.Fatalf("tx %d and tx %d share an operation slot", other, tx.ID)
			}
			slots[&tx.Ops[i]] = tx.ID
		}
	}
}

// TestPeriodicInstancesOwnTheirOps: a periodic instance's operations
// are a copy of its stream's, so a change to one instance reaches
// neither the stream nor the stream's later instances.
func TestPeriodicInstancesOwnTheirOps(t *testing.T) {
	p := streamParams(2 * chunkLen)
	p.ReadOnlyFrac, p.PeriodicFrac = 0, 1
	g, err := newGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	first := map[*pstream][]Op{}
	for range p.Count {
		tx := g.next()
		ps := g.streams[slices.IndexFunc(g.streams, func(s *pstream) bool { return s.next == tx.Arrival.Add(g.period) })]
		if &tx.Ops[0] == &ps.ops[0] {
			t.Fatalf("tx %d shares its stream's operations", tx.ID)
		}
		if ops, seen := first[ps]; seen && !slices.Equal(tx.Ops, ops) {
			t.Fatalf("tx %d: ops %v, its stream's first instance had %v", tx.ID, tx.Ops, ops)
		} else if !seen {
			first[ps] = slices.Clone(tx.Ops)
		}
		tx.Ops[0].Obj = -1
	}
	if len(first) < 2 {
		t.Fatalf("%d periodic streams: the load does not exercise reuse", len(first))
	}
}
