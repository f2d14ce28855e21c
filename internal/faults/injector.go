package faults

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
)

// Hooks lets the protocol layer react to scheduled site faults: the
// cluster wipes volatile state (and kills resident work) on crash, and
// replays its write-ahead log on recovery. Either hook may be nil.
type Hooks struct {
	OnCrash   func(site db.SiteID)
	OnRecover func(site db.SiteID)
}

// Injector is one run's fault source: a compiled plan plus its
// per-message PRNG stream, optionally armed with a Space of decision
// points. It implements netsim.FaultInjector; the network consults it
// once per inter-site message, in deterministic kernel order, so the
// fate sequence is a pure function of (plan, seed, chooser).
//
// Every exact fault, whether a chooser picked it at an armed decision
// point or the plan's Chosen section names it, goes through one method
// per kind (crash, fate, cut) that applies, journals (KFault*) and
// records it for ChosenPlan: an exploration and its plan replay run
// the same code.
type Injector struct {
	plan  *Plan
	space Space
	// rng draws the link rules' fates; nil until a plan has some.
	rng   *rand.Rand
	k     *sim.Kernel
	n     *netsim.Network
	sites int
	hooks Hooks
	// fates is plan.Chosen.Fates (ordinals strictly increase, per
	// Validate); next cursors it and msgIndex counts consults, the
	// ordinal a chosen fate names.
	fates    []ChosenFate
	next     int
	msgIndex int64
	// downUntil/cutUntil hold the injected state per site so a decision
	// never double-crashes or double-cuts a site (such picks are no-ops,
	// not recorded).
	downUntil []int64
	cutUntil  []int64
	chosen    ChosenFaults
	// points are the armed crash and cut decisions, in the order Install
	// schedules them; each event carries a pointer to its point.
	points []decision
	// none is the plan of an injector Reset for no plan.
	none Plan
}

// decision is one armed decision point: its injector and instant.
type decision struct {
	in *Injector
	at int64
}

// New compiles a plan. It returns nil for an empty plan so callers keep
// the fault-free fast path (installing a nil injector is a no-op).
func New(plan *Plan, seed int64) *Injector {
	if plan.Empty() {
		return nil
	}
	return new(Injector).Reset(plan, seed)
}

// Reset compiles plan into in, as New does, and returns in, keeping its
// buffers and generator for a cluster that is reset and run again; the
// faults it records for ChosenPlan start afresh, so a plan handed out
// earlier is never overwritten. Unlike New it never returns nil: for an
// empty plan (or none) it returns an injector with nothing to inject,
// which installs as a nil one does unless it is armed.
func (in *Injector) Reset(plan *Plan, seed int64) *Injector {
	if plan == nil {
		plan = &in.none
	}
	rng := in.rng
	if len(plan.Links) > 0 {
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed) // draws what a new generator of seed would
		}
	}
	*in = Injector{plan: plan, rng: rng, downUntil: in.downUntil, cutUntil: in.cutUntil, points: in.points}
	if plan.Chosen != nil {
		in.fates = plan.Chosen.Fates
	}
	return in
}

// Arm arms space's decision points: Install schedules a crash and a cut
// decision at each of the space's instants, and the first MaxMsgFates
// message consults each surface a fate decision. Decisions ask the
// kernel's chooser via ChooseQuiet, so a fault pick is journaled only as
// the fault it injects. An exploration arms an injector Reset for no
// plan, which has nothing else to inject.
func (in *Injector) Arm(space Space) { in.space = space }

// oneCopy is the fate of an unaffected message: a single copy with no
// extra delay; twoCopies a chosen duplicate's. Callers must not mutate
// them.
var (
	oneCopy   = []sim.Duration{0}
	twoCopies = []sim.Duration{0, 0}
)

// rule returns the first link rule active at now that matches the link,
// or nil. First-match-wins keeps overlapping rules deterministic.
func (in *Injector) rule(now int64, from, to int) *LinkFault {
	for i := range in.plan.Links {
		l := &in.plan.Links[i]
		if l.From != -1 && l.From != from {
			continue
		}
		if l.To != -1 && l.To != to {
			continue
		}
		if now < l.Start {
			continue
		}
		if l.End > l.Start && now >= l.End {
			continue
		}
		return l
	}
	return nil
}

// Deliveries rolls one message's fate: nil means the message is
// dropped; otherwise one entry per delivered copy carrying that copy's
// extra delay (a single zero entry is a normal delivery). Every consult
// advances the fate ordinal. A chosen fate for this ordinal applies
// first; then an armed fate decision; unmatched messages fall through
// to the link rules, whose PRNG draws are guarded by plan fields, so
// the draw sequence depends only on (plan, message order).
func (in *Injector) Deliveries(now sim.Time, from, to db.SiteID) []sim.Duration {
	idx := in.msgIndex
	in.msgIndex++
	if in.next < len(in.fates) && in.fates[in.next].Msg == idx {
		in.next++
		return in.fate(now, idx, from, to, in.fates[in.next-1].Fate)
	}
	if idx < int64(in.space.MaxMsgFates) {
		alts := 2
		if in.space.AllowDup {
			alts = 3
		}
		if pick := in.k.ChooseQuiet(sim.ChooseFate, alts); pick != 0 {
			return in.fate(now, idx, from, to, pick)
		}
	}
	r := in.rule(int64(now), int(from), int(to))
	if r == nil {
		return oneCopy
	}
	if r.Drop > 0 && in.rng.Float64() < r.Drop {
		return nil
	}
	copies := 1
	if r.Dup > 0 && in.rng.Float64() < r.Dup {
		copies = 2
	}
	if r.JitterMax <= 0 {
		if copies == 1 {
			return oneCopy
		}
		return make([]sim.Duration, copies)
	}
	out := make([]sim.Duration, copies)
	for i := range out {
		out[i] = sim.Duration(in.rng.Int63n(r.JitterMax + 1))
	}
	return out
}

// crash applies, journals and records one exact crash: site goes down
// now (tick at) and recovers at recoverAt (recoverAt <= at means
// never). The recovery event is created from inside the crash event.
func (in *Injector) crash(site int, at, recoverAt int64) {
	recover := recoverAt
	in.downUntil[site] = recover
	if recover <= at {
		recover = -1
		in.downUntil[site] = math.MaxInt64
	}
	in.chosen.Crashes = append(in.chosen.Crashes, Crash{Site: site, At: at, RecoverAt: recoverAt})
	in.k.Journal().Append(int64(in.k.Now()), journal.KFaultCrash, int32(site), 0, 0, recover, 0, "")
	s := db.SiteID(site)
	applyCrash(in.k, in.n, in.hooks, s, recover)
	if recover > 0 {
		in.k.At(sim.Time(recover), func() {
			applyRecover(in.k, in.n, in.hooks, s)
		})
	}
}

// fate journals and records one exact message fate and returns the
// copies to deliver.
func (in *Injector) fate(now sim.Time, idx int64, from, to db.SiteID, fate int) []sim.Duration {
	in.chosen.Fates = append(in.chosen.Fates, ChosenFate{Msg: idx, From: int(from), To: int(to), Fate: fate})
	in.k.Journal().Append(int64(now), journal.KFaultFate, int32(from), idx, 0, int64(to), int64(fate), "")
	if fate == FateDrop {
		return nil
	}
	return twoCopies
}

// cut applies, journals and records one exact partition cut: site is
// isolated now (tick at) and reconnected at healAt (healAt <= at means
// never). The heal event is created from inside the cut event.
func (in *Injector) cut(site int, at, healAt int64) {
	heal := healAt
	in.cutUntil[site] = heal
	if heal <= at {
		heal = -1
		in.cutUntil[site] = math.MaxInt64
	}
	mask := int64(1) << uint(site)
	pairs := partitionPairs([]int{site}, in.sites)
	in.chosen.Cuts = append(in.chosen.Cuts, ChosenCut{Site: site, At: at, HealAt: healAt})
	in.k.Journal().Append(int64(in.k.Now()), journal.KFaultCut, int32(site), 0, 0, mask, heal, "")
	applyCut(in.k, in.n, pairs, mask, true)
	if heal > 0 {
		in.k.At(sim.Time(heal), func() {
			applyCut(in.k, in.n, pairs, mask, false)
		})
	}
}

// crashDecision asks the chooser whether to crash a site at tick at:
// pick 0 crashes nothing, pick k crashes site k-1 for DownFor.
func (in *Injector) crashDecision(at int64) {
	pick := in.k.ChooseQuiet(sim.ChooseCrash, 1+in.sites)
	if pick == 0 || in.downUntil[pick-1] > at {
		return
	}
	in.crash(pick-1, at, until(at, in.space.DownFor))
}

// until is the end of a d-tick window opened at tick at, in the form a
// chosen fault records it: 0 (never) when d <= 0.
func until(at, d int64) int64 {
	if d <= 0 {
		return 0
	}
	return at + d
}

// cutDecision asks the chooser whether to isolate a site at tick at:
// pick 0 cuts nothing, pick k isolates site k-1 for CutFor. With fewer
// than two sites there is nothing to cut, so the decision offers no
// alternative and the chooser is not consulted.
func (in *Injector) cutDecision(at int64) {
	alts := 1
	if in.sites > 1 {
		alts += in.sites
	}
	pick := in.k.ChooseQuiet(sim.ChooseCut, alts)
	if pick == 0 || in.cutUntil[pick-1] > at {
		return
	}
	in.cut(pick-1, at, until(at, in.space.CutFor))
}

// applyCrash journals and applies one site crash: the network stops
// routing to the site and the protocol layer wipes its volatile state.
func applyCrash(k *sim.Kernel, n *netsim.Network, hooks Hooks, site db.SiteID, recover int64) {
	k.Journal().Append(int64(k.Now()), journal.KSiteCrash, int32(site), 0, 0, recover, 0, "")
	n.SetDown(site, true)
	if hooks.OnCrash != nil {
		hooks.OnCrash(site)
	}
}

// applyRecover journals and applies one site recovery.
func applyRecover(k *sim.Kernel, n *netsim.Network, hooks Hooks, site db.SiteID) {
	k.Journal().Append(int64(k.Now()), journal.KSiteRecover, int32(site), 0, 0, 0, 0, "")
	n.SetDown(site, false)
	if hooks.OnRecover != nil {
		hooks.OnRecover(site)
	}
}

// applyCut journals and applies (or heals) one partition given its
// pre-enumerated cross-partition link pairs.
func applyCut(k *sim.Kernel, n *netsim.Network, pairs [][2]db.SiteID, mask int64, cut bool) {
	kind := journal.KPartition
	if !cut {
		kind = journal.KHeal
	}
	k.Journal().Append(int64(k.Now()), kind, 0, 0, 0, mask, 0, "")
	for _, pr := range pairs {
		n.SetCut(pr[0], pr[1], cut)
	}
}

// Install wires the injector into a run of `sites` sites: it becomes
// the network's per-message fault source, and every crash, recovery,
// partition and heal of the plan is scheduled as a kernel event that
// journals itself, flips the network state and invokes the protocol
// hooks. Events are created in a fixed order — the plan's crashes,
// partitions, chosen crashes and chosen cuts, then the armed crash and
// cut decisions — and a chosen fault creates its recovery or heal event
// from inside its own, so an exploration (empty plan, armed) and its
// plan replay (chosen section, unarmed) create events in the same
// order. It fails, installing nothing, if the plan does not validate
// against sites. Installing a nil injector is a no-op.
func (in *Injector) Install(k *sim.Kernel, n *netsim.Network, sites int, hooks Hooks) error {
	if in == nil {
		return nil
	}
	if err := in.plan.Validate(sites); err != nil {
		return err
	}
	in.k, in.n, in.sites, in.hooks = k, n, sites, hooks
	in.downUntil = slices.Grow(in.downUntil[:0], sites)[:sites]
	in.cutUntil = slices.Grow(in.cutUntil[:0], sites)[:sites]
	clear(in.downUntil)
	clear(in.cutUntil)
	if len(in.plan.Links) > 0 || len(in.fates) > 0 || in.space.MaxMsgFates > 0 {
		n.SetInjector(in)
	}
	for _, c := range in.plan.Crashes {
		site := db.SiteID(c.Site)
		recover := c.RecoverAt
		if recover <= c.At {
			recover = -1
		}
		k.At(sim.Time(c.At), func() {
			applyCrash(k, n, hooks, site, recover)
		})
		if recover > 0 {
			k.At(sim.Time(recover), func() {
				applyRecover(k, n, hooks, site)
			})
		}
	}
	for _, pt := range in.plan.Partitions {
		mask := pt.mask()
		pairs := partitionPairs(pt.GroupA, sites)
		k.At(sim.Time(pt.At), func() {
			applyCut(k, n, pairs, mask, true)
		})
		if pt.HealAt > pt.At {
			k.At(sim.Time(pt.HealAt), func() {
				applyCut(k, n, pairs, mask, false)
			})
		}
	}
	if c := in.plan.Chosen; c != nil {
		for _, cr := range c.Crashes {
			k.At(sim.Time(cr.At), func() { in.crash(cr.Site, cr.At, cr.RecoverAt) })
		}
		for _, ct := range c.Cuts {
			k.At(sim.Time(ct.At), func() { in.cut(ct.Site, ct.At, ct.HealAt) })
		}
	}
	in.points = in.points[:0]
	for _, at := range in.space.CrashPoints {
		in.points = append(in.points, decision{in, at})
	}
	for _, at := range in.space.CutPoints {
		in.points = append(in.points, decision{in, at})
	}
	crashes := len(in.space.CrashPoints)
	for i := range in.points {
		call := decideCrash
		if i >= crashes {
			call = decideCut
		}
		k.AtOptional(sim.Time(in.points[i].at), call, &in.points[i])
	}
	return nil
}

// decideCrash and decideCut are the armed decision events.
func decideCrash(a any) {
	d := a.(*decision)
	d.in.crashDecision(d.at)
}

func decideCut(a any) {
	d := a.(*decision)
	d.in.cutDecision(d.at)
}

// ChosenPlan returns the exact faults this run injected — picked at
// armed decision points or replayed from the plan's Chosen section — as
// a plan with only a Chosen section, or nil when there were none.
// Replaying it unarmed for the same (seed, config) journal key
// regenerates a byte-identical journal.
func (in *Injector) ChosenPlan() *Plan {
	if in == nil || in.chosen.empty() {
		return nil
	}
	c := in.chosen
	return &Plan{Chosen: &c}
}

// partitionPairs enumerates the cross-partition links to cut, in sorted
// order so the cut sequence is deterministic.
func partitionPairs(groupA []int, sites int) [][2]db.SiteID {
	inA := make(map[int]bool, len(groupA))
	for _, s := range groupA {
		inA[s] = true
	}
	a := append([]int(nil), groupA...)
	sort.Ints(a)
	var pairs [][2]db.SiteID
	for _, x := range a {
		for y := 0; y < sites; y++ {
			if !inA[y] {
				pairs = append(pairs, [2]db.SiteID{db.SiteID(x), db.SiteID(y)})
			}
		}
	}
	return pairs
}
