package workload

import (
	"math"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/place"
	"rtlock/internal/sim"
)

func params(t *testing.T) Params {
	t.Helper()
	cat, err := db.NewCatalog(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Seed:             1,
		Catalog:          cat,
		Count:            2000,
		MeanInterarrival: 100 * sim.Millisecond,
		MeanSize:         10,
		ReadOnlyFrac:     0.5,
		PerObjCost:       30 * sim.Millisecond,
		SlackMin:         3,
		SlackMax:         7,
	}
}

func TestGenerateValidation(t *testing.T) {
	p := params(t)
	bad := []func(*Params){
		func(p *Params) { p.Catalog = nil },
		func(p *Params) { p.Count = 0 },
		func(p *Params) { p.MeanInterarrival = 0 },
		func(p *Params) { p.MeanSize = 0 },
		func(p *Params) { p.ReadOnlyFrac = 1.5 },
		func(p *Params) { p.SlackMin = 0 },
		func(p *Params) { p.SlackMax = p.SlackMin - 1 },
		func(p *Params) { p.PerObjCost = 0 },
	}
	for i, mutate := range bad {
		q := p
		mutate(&q)
		if _, err := Generate(q); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := params(t)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline ||
			a[i].Kind != b[i].Kind || len(a[i].Ops) != len(b[i].Ops) {
			t.Fatalf("transaction %d differs between identical seeds", i)
		}
	}
	p.Seed = 2
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestGenerateInterarrivalMean(t *testing.T) {
	p := params(t)
	p.Count = 20000
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	last := txs[len(txs)-1].Arrival
	mean := float64(last) / float64(len(txs))
	want := float64(p.MeanInterarrival)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("empirical mean interarrival %v, want within 5%% of %v", mean, want)
	}
}

func TestGenerateSizesAroundMean(t *testing.T) {
	p := params(t)
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tx := range txs {
		s := tx.Size()
		if s < p.MeanSize/2 || s > p.MeanSize+p.MeanSize/2 {
			t.Fatalf("size %d outside [%d,%d]", s, p.MeanSize/2, p.MeanSize+p.MeanSize/2)
		}
		total += s
	}
	mean := float64(total) / float64(len(txs))
	if math.Abs(mean-float64(p.MeanSize)) > 1 {
		t.Fatalf("mean size %v, want about %d", mean, p.MeanSize)
	}
}

func TestGenerateMix(t *testing.T) {
	p := params(t)
	p.Count = 10000
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ro := 0
	for _, tx := range txs {
		switch tx.Kind {
		case ReadOnly:
			ro++
			for _, op := range tx.Ops {
				if op.Mode != core.Read {
					t.Fatal("read-only transaction writes")
				}
			}
		case Update:
			for _, op := range tx.Ops {
				if op.Mode != core.Write {
					t.Fatal("update transaction reads (update model writes all accesses)")
				}
			}
		}
	}
	frac := float64(ro) / float64(len(txs))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("read-only fraction %v, want about 0.5", frac)
	}
}

func TestGenerateNoDuplicateObjects(t *testing.T) {
	p := params(t)
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		seen := make(map[core.ObjectID]bool)
		for _, op := range tx.Ops {
			if seen[op.Obj] {
				t.Fatalf("transaction %d accesses object %d twice", tx.ID, op.Obj)
			}
			seen[op.Obj] = true
		}
	}
}

func TestGenerateDeadlineProportionalToSize(t *testing.T) {
	p := params(t)
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		slack := float64(tx.Deadline.Sub(tx.Arrival)) / (float64(tx.Size()) * float64(p.PerObjCost))
		if slack < p.SlackMin-0.01 || slack > p.SlackMax+0.01 {
			t.Fatalf("transaction %d slack %v outside [%v,%v]", tx.ID, slack, p.SlackMin, p.SlackMax)
		}
	}
}

func TestGenerateLocalWriteSets(t *testing.T) {
	p := params(t)
	p.LocalWriteSets = true
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if tx.Kind != Update {
			continue
		}
		_, writes := tx.AccessSets(nil, nil)
		for _, obj := range writes {
			if p.Catalog.PrimarySite(obj) != tx.Home {
				t.Fatalf("update transaction %d at site %d writes object %d whose primary is site %d",
					tx.ID, tx.Home, obj, p.Catalog.PrimarySite(obj))
			}
		}
	}
}

// TestLocalWriteSetsNeedPrimariesEverywhere: with more sites than
// objects, some site holds no primaries, and its update transactions
// would come out with no ops.
func TestLocalWriteSetsNeedPrimariesEverywhere(t *testing.T) {
	p := params(t)
	p.LocalWriteSets = true
	cat, err := db.NewCatalog(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Catalog, p.Count = cat, 200
	const want = "workload: local write sets need primaries at every site, but site 4 of 8 holds none of the 4 objects"
	if _, err := Generate(p); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if p.Catalog, err = db.NewCatalog(4, 4); err != nil {
		t.Fatal(err)
	}
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if len(tx.Ops) == 0 {
			t.Fatalf("transaction %d has no ops", tx.ID)
		}
	}
}

func TestGeneratePriorityEDF(t *testing.T) {
	p := params(t)
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := txs[0], txs[1]
	pa, pb := a.Priority(), b.Priority()
	if a.Deadline < b.Deadline && !pa.Higher(pb) {
		t.Fatal("earlier deadline must mean higher priority")
	}
	if a.Deadline > b.Deadline && !pb.Higher(pa) {
		t.Fatal("later deadline must mean lower priority")
	}
}

func TestGeneratePeriodicStreams(t *testing.T) {
	p := params(t)
	p.ReadOnlyFrac = 0
	p.PeriodicFrac = 0.5
	p.Count = 500
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	periodic := 0
	bySet := make(map[string]int)
	for _, tx := range txs {
		if !tx.Periodic {
			continue
		}
		periodic++
		key := ""
		for _, op := range tx.Ops {
			key += string(rune(op.Obj)) + ","
		}
		bySet[key]++
	}
	if periodic == 0 {
		t.Fatal("no periodic transactions generated")
	}
	reused := false
	for _, n := range bySet {
		if n > 1 {
			reused = true
		}
	}
	if !reused {
		t.Fatal("periodic streams never reuse an access set")
	}
}

func TestGeneratePriorityPolicies(t *testing.T) {
	p := params(t)
	p.Count = 200

	p.Policy = PriorityFCFS
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(txs); i++ {
		if !txs[i-1].Priority().Higher(txs[i].Priority()) {
			t.Fatal("FCFS: earlier arrival must outrank later")
		}
	}

	p.Policy = PrioritySlack
	txs, err = Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		est := sim.Duration(tx.Size()) * p.PerObjCost
		slack := int64(tx.Deadline.Sub(tx.Arrival) - est)
		if tx.Priority().Deadline != slack {
			t.Fatalf("slack priority = %d, want %d", tx.Priority().Deadline, slack)
		}
	}

	p.Policy = PriorityRandom
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Random priorities must still be deterministic per seed.
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Priority() != b[i].Priority() {
			t.Fatal("random policy not reproducible across identical seeds")
		}
	}
}

func TestExplicitPriorityOverride(t *testing.T) {
	tx := &Txn{ID: 1, Deadline: 100}
	if got := tx.Priority(); got.Deadline != 100 {
		t.Fatalf("default priority = %v", got)
	}
	tx.Prio = sim.Priority{Deadline: 5, TxID: 1}
	if got := tx.Priority(); got.Deadline != 5 {
		t.Fatalf("override ignored: %v", got)
	}
}

func TestGenerateHotspot(t *testing.T) {
	p := params(t)
	p.Count = 2000
	p.HotspotFrac = 0.1
	p.HotspotProb = 0.8
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	hotN := int(0.1 * float64(p.Catalog.Objects()))
	hot, total := 0, 0
	for _, tx := range txs {
		for _, op := range tx.Ops {
			total++
			if int(op.Obj) < hotN {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("hotspot access fraction %v, want ≈ 0.8", frac)
	}
}

func TestGenerateHotspotValidation(t *testing.T) {
	p := params(t)
	p.HotspotFrac = 1.5
	if _, err := Generate(p); err == nil {
		t.Fatal("bad hotspot fraction accepted")
	}
	p = params(t)
	p.HotspotProb = -0.1
	if _, err := Generate(p); err == nil {
		t.Fatal("bad hotspot probability accepted")
	}
}

func TestGenerateHotspotExhaustsRegion(t *testing.T) {
	// HotspotProb 1 with a tiny hotspot must not loop forever when
	// transactions are bigger than the hotspot.
	cat, err := db.NewCatalog(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	p := params(t)
	p.Catalog = cat
	p.Count = 50
	p.MeanSize = 10
	p.HotspotFrac = 0.1 // 2 objects
	p.HotspotProb = 1
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		seen := map[core.ObjectID]bool{}
		for _, op := range tx.Ops {
			if seen[op.Obj] {
				t.Fatal("duplicate object under hotspot sampling")
			}
			seen[op.Obj] = true
		}
	}
}

func TestGenerateImplicitDeadlines(t *testing.T) {
	p := params(t)
	p.ReadOnlyFrac = 0
	p.PeriodicFrac = 0.6
	p.Period = 500 * sim.Millisecond
	p.ImplicitDeadlines = true
	p.Count = 300
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, tx := range txs {
		if !tx.Periodic {
			continue
		}
		checked++
		if tx.Deadline != tx.Arrival.Add(p.Period) {
			t.Fatalf("periodic deadline %v, want arrival+period %v",
				tx.Deadline, tx.Arrival.Add(p.Period))
		}
	}
	if checked == 0 {
		t.Fatal("no periodic instances generated")
	}
}

func TestGenerateSortedByArrival(t *testing.T) {
	p := params(t)
	txs, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(txs); i++ {
		if txs[i].Arrival < txs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
}

// TestAccessSets: the read and write sets partition a transaction's
// objects by mode; without a catalog each set is ascending, with one it
// is ascending by (primary site, object), so each site's objects are
// one run; and both come from a single allocation, or none into a
// buffer that holds them.
func TestAccessSets(t *testing.T) {
	pm, err := place.NewSharded(4, 200, place.HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := db.NewCatalogWithPlacement(pm)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := Generate(params(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*db.Catalog{nil, hashed} {
		key := func(o core.ObjectID) [2]int {
			if cat == nil {
				return [2]int{0, int(o)}
			}
			return [2]int{int(cat.PrimarySite(o)), int(o)}
		}
		for _, tx := range txs[:300] {
			reads, writes := tx.AccessSets(cat, nil)
			mode := map[core.ObjectID]core.Mode{}
			for _, op := range tx.Ops {
				mode[op.Obj] = op.Mode
			}
			if len(reads)+len(writes) != len(tx.Ops) {
				t.Fatalf("tx %d: %d reads + %d writes for %d ops", tx.ID, len(reads), len(writes), len(tx.Ops))
			}
			for set, m := range map[*[]core.ObjectID]core.Mode{&reads: core.Read, &writes: core.Write} {
				for i, o := range *set {
					if mode[o] != m {
						t.Fatalf("tx %d: object %d in the set of mode %d, accessed in mode %d", tx.ID, o, m, mode[o])
					}
					if i == 0 {
						continue
					}
					if prev, k := key((*set)[i-1]), key(o); prev[0] > k[0] || prev[0] == k[0] && prev[1] >= k[1] {
						t.Fatalf("tx %d: set %v out of order at %d", tx.ID, *set, i)
					}
				}
			}
		}
		tx := txs[0]
		if allocs := testing.AllocsPerRun(50, func() { tx.AccessSets(cat, nil) }); allocs != 1 {
			t.Fatalf("AccessSets allocates %.0f times, want 1", allocs)
		}
		buf := make([]core.ObjectID, tx.Size())
		if allocs := testing.AllocsPerRun(50, func() { tx.AccessSets(cat, buf) }); allocs != 0 {
			t.Fatalf("AccessSets into a buffer that holds the sets allocates %.0f times, want 0", allocs)
		}
	}
}
