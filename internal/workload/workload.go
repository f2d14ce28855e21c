// Package workload generates transaction loads per the paper's model:
// transactions enter the system with exponentially distributed
// interarrival times; the data objects accessed are chosen uniformly
// from the database; the total processing time is directly related to
// the number of objects accessed; each deadline is set in proportion to
// the transaction's size and the system workload; and the transaction
// with the earliest deadline is assigned the highest priority.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/sim"
)

// Kind distinguishes the paper's transaction types.
type Kind int

// Transaction kinds.
const (
	// Update transactions write every object they access (the
	// tracking-update model of §4: a station updates its view).
	Update Kind = iota + 1
	// ReadOnly transactions only read.
	ReadOnly
)

// PriorityPolicy selects how transaction priorities are assigned. The
// paper's experiments assign the highest priority to the earliest
// deadline; the environment lets the experimenter choose, so the
// alternatives studied by contemporaneous work ([Abb88]) are available
// as ablations.
type PriorityPolicy int

// Priority assignment policies.
const (
	// PriorityEDF: earliest deadline first (the paper's choice).
	PriorityEDF PriorityPolicy = iota + 1
	// PriorityFCFS: earliest arrival first.
	PriorityFCFS
	// PriorityRandom: arbitrary fixed order, the no-information
	// baseline.
	PriorityRandom
	// PrioritySlack: least slack (deadline minus estimated execution
	// time) first.
	PrioritySlack
)

// Txn is one generated transaction: its timing constraints, home site,
// and declared access sets. The runtime in internal/txn executes it.
type Txn struct {
	ID       int64
	Kind     Kind
	Periodic bool
	Arrival  sim.Time
	Deadline sim.Time
	Home     db.SiteID
	// Ops is the access sequence; under strict two-phase locking each
	// object appears once.
	Ops []Op
	// Prio, when non-zero, overrides the default earliest-deadline
	// priority (set by non-EDF policies or by hand-crafted loads).
	Prio sim.Priority
}

// Op is one access in a transaction's sequence.
type Op struct {
	Obj  core.ObjectID
	Mode core.Mode
}

// Size returns the number of objects the transaction accesses.
func (t *Txn) Size() int { return len(t.Ops) }

// Priority returns the transaction's fixed priority: the explicit Prio
// if one was assigned, otherwise earliest-deadline-highest.
func (t *Txn) Priority() sim.Priority {
	if t.Prio != (sim.Priority{}) {
		return t.Prio
	}
	return sim.Priority{Deadline: int64(t.Deadline), TxID: t.ID}
}

// AccessSets returns the objects t reads and the objects it writes, both
// in buf's array when it holds t's operations, else in a new one sized to
// them. Each set is ascending; with a catalog, ascending by primary site
// first, so the objects a site owns are one run of each set. Sets written
// into a reused buf last only until its next use: a message that carries
// a set past the attempt must carry a copy.
func (t *Txn) AccessSets(cat *db.Catalog, buf []core.ObjectID) (reads, writes []core.ObjectID) {
	var all []core.ObjectID
	if cap(buf) >= len(t.Ops) {
		all = buf[:len(t.Ops)]
	} else {
		all = make([]core.ObjectID, len(t.Ops))
	}
	r, w := 0, len(all)
	for _, op := range t.Ops {
		if op.Mode == core.Read {
			all[r] = op.Obj
			r++
		} else {
			w--
			all[w] = op.Obj
		}
	}
	reads, writes = all[:r:r], all[r:]
	sortObjects(reads, cat)
	sortObjects(writes, cat)
	return reads, writes
}

// sortObjects orders objs by primary site (with a catalog), then by id.
// Access sets are small (mean size objects); insertion sort beats
// sort.Slice and its closure on the hot path.
func sortObjects(objs []core.ObjectID, cat *db.Catalog) {
	less := func(a, b core.ObjectID) bool {
		if cat != nil {
			if sa, sb := cat.PrimarySite(a), cat.PrimarySite(b); sa != sb {
				return sa < sb
			}
		}
		return a < b
	}
	for i := 1; i < len(objs); i++ {
		v := objs[i]
		j := i - 1
		for j >= 0 && less(v, objs[j]) {
			objs[j+1] = objs[j]
			j--
		}
		objs[j+1] = v
	}
}

// Params configures generation.
type Params struct {
	// Seed drives the deterministic random stream; experiments vary it
	// per run and average, as the paper averages over 10 runs.
	Seed int64
	// Catalog lays out the database.
	Catalog *db.Catalog
	// Count is the number of transactions to generate.
	Count int
	// MeanInterarrival is the mean of the exponential interarrival
	// distribution.
	MeanInterarrival sim.Duration
	// MeanSize is the average number of objects accessed. Individual
	// sizes are uniform on [MeanSize/2, 3*MeanSize/2] (clamped to at
	// least 1 and at most the database size).
	MeanSize int
	// ReadOnlyFrac is the fraction of read-only transactions; the rest
	// are updates. The paper's single-site experiments use updates
	// (ReadOnlyFrac 0); the distributed experiments sweep the mix.
	ReadOnlyFrac float64
	// PerObjCost is the estimated processing cost per object used in
	// the deadline formula (CPU plus I/O for a disk-resident database).
	PerObjCost sim.Duration
	// SlackMin and SlackMax bound the uniform slack factor: deadline =
	// arrival + slack × size × PerObjCost. Tighter slack means harder
	// deadlines.
	SlackMin, SlackMax float64
	// LocalWriteSets, when true, draws each update transaction's
	// objects from a single site's primary partition and homes the
	// transaction there (the local-ceiling approach's restriction 2:
	// objects to be updated must be primary copies at the updating
	// transaction's site). Read-only transactions are assigned to a
	// uniformly random site either way.
	LocalWriteSets bool
	// PeriodicFrac is the fraction of update transactions generated as
	// periodic task instances (the tracking model's repetitive scans);
	// they re-use one access set per stream and arrive on a fixed
	// period with the same size and deadline slack.
	PeriodicFrac float64
	// Period is the period of periodic streams (defaults to
	// 10×MeanInterarrival when zero).
	Period sim.Duration
	// ImplicitDeadlines gives periodic instances the classic implicit
	// deadline — the start of the next period — instead of the
	// size-proportional one.
	ImplicitDeadlines bool
	// Policy assigns priorities (default PriorityEDF).
	Policy PriorityPolicy
	// HotspotFrac and HotspotProb skew object selection: with
	// probability HotspotProb an access lands uniformly inside the
	// first HotspotFrac of the database (per partition under
	// LocalWriteSets). Both zero keeps the paper's uniform choice.
	HotspotFrac float64
	// HotspotProb is the probability an access targets the hotspot.
	HotspotProb float64
	// LocalityProb skews object selection toward the home site's shard:
	// with this probability an access draws from the home site's primary
	// partition through a Zipf-skewed rank (hot local objects first);
	// otherwise it is uniform over the whole database. Zero keeps the
	// historical uniform choice and draws nothing extra from the random
	// stream. Update transactions under LocalWriteSets are already fully
	// partition-local; the knob then shapes only the unrestricted
	// transactions.
	LocalityProb float64
	// BurstFactor, when > 1, makes the arrival process bursty: while the
	// burst phase is on, the mean interarrival is divided by this factor.
	// The phase is a deterministic square wave of the arrival clock —
	// BurstOn of compressed arrivals, then BurstOff of the base rate —
	// so the same seed still yields the same load. Zero (or 1) keeps the
	// paper's stationary Poisson arrivals, with a random stream identical
	// to pre-burst versions of this package.
	BurstFactor float64
	// BurstOn and BurstOff are the burst-phase and quiet-phase widths;
	// both must be positive when BurstFactor > 1.
	BurstOn, BurstOff sim.Duration
}

// Validate reports why no load can be generated from p.
func (p Params) Validate() error {
	if p.Catalog == nil {
		return fmt.Errorf("workload: nil catalog")
	}
	if p.LocalWriteSets {
		// An update homed at a site without primaries would draw its
		// access set from an empty partition.
		for site := range p.Catalog.Sites() {
			if len(p.Catalog.ObjectsAt(db.SiteID(site))) == 0 {
				return fmt.Errorf("workload: local write sets need primaries at every site, but site %d of %d holds none of the %d objects",
					site, p.Catalog.Sites(), p.Catalog.Objects())
			}
		}
	}
	if p.Catalog.Objects() > math.MaxInt32 {
		// The access-set shuffle draws rand.Perm's Int31n steps.
		return fmt.Errorf("workload: %d objects exceed the generator's limit of %d", p.Catalog.Objects(), math.MaxInt32)
	}
	if p.Count <= 0 {
		return fmt.Errorf("workload: count must be positive, got %d", p.Count)
	}
	if p.MeanInterarrival <= 0 {
		return fmt.Errorf("workload: mean interarrival must be positive")
	}
	if p.MeanSize < 1 {
		return fmt.Errorf("workload: mean size must be >= 1, got %d", p.MeanSize)
	}
	if p.ReadOnlyFrac < 0 || p.ReadOnlyFrac > 1 {
		return fmt.Errorf("workload: read-only fraction %v out of [0,1]", p.ReadOnlyFrac)
	}
	if p.SlackMin <= 0 || p.SlackMax < p.SlackMin {
		return fmt.Errorf("workload: slack bounds (%v,%v) invalid", p.SlackMin, p.SlackMax)
	}
	if p.PerObjCost <= 0 {
		return fmt.Errorf("workload: per-object cost must be positive")
	}
	if p.HotspotFrac < 0 || p.HotspotFrac > 1 || p.HotspotProb < 0 || p.HotspotProb > 1 {
		return fmt.Errorf("workload: hotspot parameters (%v,%v) out of [0,1]", p.HotspotFrac, p.HotspotProb)
	}
	if p.LocalityProb < 0 || p.LocalityProb > 1 {
		return fmt.Errorf("workload: locality probability %v out of [0,1]", p.LocalityProb)
	}
	if p.BurstFactor != 0 && p.BurstFactor < 1 {
		return fmt.Errorf("workload: burst factor %v must be >= 1 (or 0 for off)", p.BurstFactor)
	}
	if p.BurstFactor > 1 && (p.BurstOn <= 0 || p.BurstOff <= 0) {
		return fmt.Errorf("workload: burst factor %v needs positive BurstOn/BurstOff, got (%d,%d)",
			p.BurstFactor, p.BurstOn, p.BurstOff)
	}
	return nil
}

// Generate produces the transaction load, ordered by arrival time, in
// the calling goroutine. It draws from the generator a Stream reads, so
// a generated and a streamed load are the same transaction for
// transaction, and existing (seed, config) loads — and therefore
// journals — are byte-for-byte unchanged by the streaming refactor.
func Generate(p Params) ([]*Txn, error) {
	g, err := newGenerator(p)
	if err != nil {
		return nil, err
	}
	txs := make([]*Txn, p.Count)
	for i := range txs {
		txs[i] = g.next()
	}
	return txs, nil
}

// InArrivalOrder returns txs in stable arrival order, the order in
// which their arrivals fire: txs itself when it is sorted (a generated
// load always is), else a sorted copy, so the caller's slice keeps its
// order. A loader hands a preloaded load out of it by index, the slice
// form of Stream.Next.
func InArrivalOrder(txs []*Txn) []*Txn {
	byArrival := func(a, b *Txn) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(txs, byArrival) {
		txs = slices.Clone(txs)
		slices.SortStableFunc(txs, byArrival)
	}
	return txs
}

// generator is the load's draw state. Exactly one goroutine holds it at
// a time, so the draw sequence is the same wherever it runs.
type generator struct {
	p Params
	// src is the random stream; rng reads it through math/rand's
	// methods, the access-set shuffle directly.
	src    source
	rng    *rand.Rand
	period sim.Duration
	now    sim.Time
	id     int64
	// made counts the transactions generated so far.
	made int
	// idx is the index scratch of pickIndexes, as long as the largest
	// access set drawn so far.
	idx []int
	// zipfs caches the locality draw's rank distribution per home site.
	zipfs []*rand.Zipf
	// Periodic streams are materialized lazily: each new periodic
	// instance either continues an existing stream or starts one.
	streams []*pstream
	// txs and ops are the arenas the transactions and their operations
	// are carved from: txs holds the rest of the current chunk's
	// transactions (at most chunkLen, never more than the load has
	// left), ops the free operation slots. A load costs its generator a
	// few allocations per chunk, not two per transaction.
	txs []Txn
	ops []Op
}

// pstream is one periodic task stream (a repetitive tracking scan).
type pstream struct {
	home db.SiteID
	ops  []Op
	next sim.Time
}

// newGenerator validates the parameters and positions the generator
// before the first arrival.
func newGenerator(p Params) (*generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	period := p.Period
	if period <= 0 {
		period = 10 * p.MeanInterarrival
	}
	g := &generator{p: p, period: period}
	g.src.Seed(p.Seed)
	g.rng = rand.New(&g.src)
	return g, nil
}

// next generates the next transaction; the caller stops after Count.
// Arrival times are non-decreasing.
func (g *generator) next() *Txn {
	t := g.newTxn()
	g.made++
	g.now = g.now.Add(expDuration(g.rng, g.meanInterarrival()))
	g.id++
	kind := Update
	if g.rng.Float64() < g.p.ReadOnlyFrac {
		kind = ReadOnly
	}
	t.ID, t.Kind, t.Arrival = g.id, kind, g.now

	if kind == Update && g.p.PeriodicFrac > 0 && g.rng.Float64() < g.p.PeriodicFrac {
		t.Periodic = true
		var ps *pstream
		// Reuse the stream whose next instance is due.
		for _, cand := range g.streams {
			if cand.next <= g.now {
				ps = cand
				break
			}
		}
		if ps == nil {
			ps = &pstream{
				home: db.SiteID(g.rng.Intn(g.p.Catalog.Sites())),
			}
			ps.ops = g.pickOps(Update, ps.home)
			g.streams = append(g.streams, ps)
		}
		ps.next = g.now.Add(sim.Duration(g.period))
		t.Home = ps.home
		t.Ops = g.carve(len(ps.ops))
		copy(t.Ops, ps.ops)
	} else {
		t.Home = db.SiteID(g.rng.Intn(g.p.Catalog.Sites()))
		t.Ops = g.pickOps(kind, t.Home)
	}
	slack := g.p.SlackMin + g.rng.Float64()*(g.p.SlackMax-g.p.SlackMin)
	exec := sim.Duration(float64(t.Size()) * float64(g.p.PerObjCost) * slack)
	t.Deadline = t.Arrival.Add(exec)
	if t.Periodic && g.p.ImplicitDeadlines {
		t.Deadline = t.Arrival.Add(g.period)
	}
	switch g.p.Policy {
	case PriorityFCFS:
		t.Prio = sim.Priority{Deadline: int64(t.Arrival), TxID: t.ID}
	case PriorityRandom:
		t.Prio = sim.Priority{Deadline: g.rng.Int63(), TxID: t.ID}
	case PrioritySlack:
		est := sim.Duration(t.Size()) * g.p.PerObjCost
		t.Prio = sim.Priority{Deadline: int64(t.Deadline.Sub(t.Arrival) - est), TxID: t.ID}
	}
	return t
}

// newTxn carves the next transaction from the chunk's arena, starting a
// new chunk, with fresh operation slots, when the arena is used up.
func (g *generator) newTxn() *Txn {
	if len(g.txs) == 0 {
		g.txs = make([]Txn, min(chunkLen, max(g.p.Count-g.made, 1)))
		g.ops = nil
	}
	t := &g.txs[0]
	g.txs = g.txs[1:]
	return t
}

// carve returns n operation slots from the arena, with capacity n: an
// append to one transaction's operations copies them rather than
// overwriting its neighbour's. A short arena is replaced by one sized
// for this request, the mean size of each transaction the chunk has
// left, and two more means, so that a chunk's sizes seldom outrun it.
func (g *generator) carve(n int) []Op {
	if len(g.ops) < n {
		g.ops = make([]Op, n+(len(g.txs)+2)*g.p.MeanSize)
	}
	ops := g.ops[:n:n]
	g.ops = g.ops[n:]
	return ops
}

// meanInterarrival returns the phase-dependent mean: the base mean, or
// the base divided by BurstFactor while the deterministic burst square
// wave (evaluated at the previous arrival instant) is on. With bursts
// off this is exactly the base mean, and since the burst branch draws
// nothing from the random stream, non-bursty loads are unchanged.
func (g *generator) meanInterarrival() sim.Duration {
	mean := g.p.MeanInterarrival
	if g.p.BurstFactor <= 1 {
		return mean
	}
	cycle := g.p.BurstOn + g.p.BurstOff
	if sim.Duration(int64(g.now)%int64(cycle)) < g.p.BurstOn {
		mean = sim.Duration(float64(mean) / g.p.BurstFactor)
		if mean < 1 {
			mean = 1
		}
	}
	return mean
}

// pickOps draws a transaction's access set: size uniform around the mean,
// objects uniform without replacement from the whole database (or, for
// update transactions under LocalWriteSets, from the home site's primary
// partition), in random request order.
func (g *generator) pickOps(kind Kind, home db.SiteID) []Op {
	p := &g.p
	pool := p.Catalog.Objects()
	var partition []core.ObjectID
	if kind == Update && p.LocalWriteSets {
		partition = p.Catalog.ObjectsAt(home)
		pool = len(partition)
	}
	lo := p.MeanSize / 2
	if lo < 1 {
		lo = 1
	}
	hi := p.MeanSize + p.MeanSize/2
	if hi < lo {
		hi = lo
	}
	if hi > pool {
		hi = pool
	}
	if lo > hi {
		lo = hi
	}
	size := lo + g.rng.Intn(hi-lo+1)

	mode := core.Write
	if kind == ReadOnly {
		mode = core.Read
	}
	if p.LocalityProb > 0 && partition == nil {
		return g.pickLocalityOps(mode, home, size)
	}
	ops := g.carve(size)
	for i, idx := range g.pickIndexes(pool, size) {
		obj := core.ObjectID(idx)
		if partition != nil {
			obj = partition[idx]
		}
		ops[i] = Op{Obj: obj, Mode: mode}
	}
	return ops
}

// pickIndexes draws size distinct indexes from [0, pool): uniformly, or
// skewed toward the hotspot prefix when configured. The returned slice
// aliases the generator's index scratch and is only valid until the next
// call.
func (g *generator) pickIndexes(pool, size int) []int {
	if cap(g.idx) < size {
		g.idx = make([]int, size)
	}
	out := g.idx[:size]
	p := &g.p
	hot := 0
	if p.HotspotProb > 0 && p.HotspotFrac > 0 {
		hot = max(int(p.HotspotFrac*float64(pool)), 1)
	}
	if hot == 0 || hot >= pool {
		// The uniform choice is rand.Perm(pool)[:size], draw for draw.
		g.src.permPrefix(out, pool)
		return out
	}
	out = out[:0]
	hotUsed, coldUsed := 0, 0
	for len(out) < size {
		fromHot := g.rng.Float64() < p.HotspotProb
		// When one region is exhausted, draw from the other so the
		// loop always terminates (size never exceeds the pool).
		if hotUsed == hot {
			fromHot = false
		} else if coldUsed == pool-hot {
			fromHot = true
		}
		var idx int
		if fromHot {
			idx = g.rng.Intn(hot)
		} else {
			idx = hot + g.rng.Intn(pool-hot)
		}
		if slices.Contains(out, idx) {
			continue
		}
		if fromHot {
			hotUsed++
		} else {
			coldUsed++
		}
		out = append(out, idx)
	}
	return out
}

// zipfSkew is the fixed exponent of the locality draw's Zipf rank: the
// home partition's objects are ranked ascending and low ranks dominate.
const zipfSkew = 1.5

// pickLocalityOps draws size distinct objects mixing local-shard and
// global accesses: with probability LocalityProb an access is a
// Zipf-skewed rank into the home site's primary partition, otherwise
// uniform over the whole database. Repeats in the dense Zipf head fall
// back to the first unused partition object so the loop stays bounded;
// an exhausted partition (or a site with no primaries under hash
// placement) degrades to the uniform draw.
func (g *generator) pickLocalityOps(mode core.Mode, home db.SiteID, size int) []Op {
	local := g.p.Catalog.ObjectsAt(home)
	total := g.p.Catalog.Objects()
	localUsed := 0
	ops := g.carve(size)[:0]
	for len(ops) < size {
		fromLocal := g.rng.Float64() < g.p.LocalityProb
		if localUsed >= len(local) {
			fromLocal = false
		}
		var obj core.ObjectID
		if fromLocal {
			obj = local[g.zipf(home, len(local)).Uint64()]
			if drawn(ops, obj) {
				for _, cand := range local {
					if !drawn(ops, cand) {
						obj = cand
						break
					}
				}
			}
		} else {
			obj = core.ObjectID(g.rng.Intn(total))
			if drawn(ops, obj) {
				continue
			}
		}
		if _, ok := slices.BinarySearch(local, obj); ok {
			localUsed++
		}
		ops = append(ops, Op{Obj: obj, Mode: mode})
	}
	return ops
}

// zipf returns the home site's rank distribution over its n primaries.
// Building one draws nothing from the stream, so it is built once.
func (g *generator) zipf(home db.SiteID, n int) *rand.Zipf {
	if g.zipfs == nil {
		g.zipfs = make([]*rand.Zipf, g.p.Catalog.Sites())
	}
	if g.zipfs[home] == nil {
		g.zipfs[home] = rand.NewZipf(g.rng, zipfSkew, 1, uint64(n-1))
	}
	return g.zipfs[home]
}

// drawn reports whether obj is already in ops. Access sets are a handful
// of objects, so a scan beats a per-transaction set.
func drawn(ops []Op, obj core.ObjectID) bool {
	for _, op := range ops {
		if op.Obj == obj {
			return true
		}
	}
	return false
}

// expDuration draws from an exponential distribution with the given mean.
func expDuration(rng *rand.Rand, mean sim.Duration) sim.Duration {
	d := sim.Duration(math.Round(rng.ExpFloat64() * float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}
