package faults

import (
	"math"

	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
)

// Space bounds a fault-space exploration: the decision instants and
// per-message fates a chooser may pick among. Every decision has
// canonical alternative 0 = "inject nothing", so a canonical chooser
// (or none) makes the space a strict no-op and the run byte-identical
// to a fault-free one.
type Space struct {
	// CrashPoints are the virtual ticks at which a crash decision is
	// surfaced (sim.ChooseCrash, 1+sites alternatives: none, or crash
	// site i-1).
	CrashPoints []int64
	// DownFor is how long a chosen crash keeps the site down before
	// recovery (<= 0 means crashed sites never recover).
	DownFor int64
	// MaxMsgFates caps how many inter-site messages surface a fate
	// decision (sim.ChooseFate): only the first MaxMsgFates injector
	// consults branch, bounding exploration depth. 0 disables message
	// fates.
	MaxMsgFates int
	// AllowDup adds "duplicate" as a third fate alternative beyond
	// deliver/drop.
	AllowDup bool
	// CutPoints are the virtual ticks at which a partition decision is
	// surfaced (sim.ChooseCut, 1+sites alternatives: none, or isolate
	// site i-1).
	CutPoints []int64
	// CutFor is how long a chosen cut lasts before healing (<= 0 means
	// it never heals).
	CutFor int64
}

// SpaceInjector turns a Space into live fault decisions: installed like
// a plan injector, it schedules a kernel event per crash/cut point and
// consults the kernel's chooser (via ChooseQuiet, so fault picks are
// never KChoice-journaled) at each; chosen faults journal themselves as
// KFaultCrash/KFaultFate/KFaultCut and accumulate into a ChosenFaults
// section retrievable with ChosenPlan — the exact, replayable failure
// schedule this run suffered. It is recycled across exploration runs
// via Reset.
type SpaceInjector struct {
	space Space
	k     *sim.Kernel
	n     *netsim.Network
	sites int
	hooks Hooks
	// msgIndex counts injector consults; downUntil/cutUntil mirror the
	// injected state so a decision never double-crashes or double-cuts
	// a site (such picks are no-ops, not recorded).
	msgIndex  int64
	downUntil []int64
	cutUntil  []int64
	chosen    ChosenFaults
	dup       [2]sim.Duration
}

// NewSpaceInjector builds an injector over a decision space.
func NewSpaceInjector(space Space) *SpaceInjector {
	si := &SpaceInjector{}
	si.Reset(space)
	return si
}

// Reset rearms the injector for a fresh run over a (possibly new)
// space, keeping its allocations.
func (si *SpaceInjector) Reset(space Space) {
	si.space = space
	si.k, si.n = nil, nil
	si.sites = 0
	si.hooks = Hooks{}
	si.msgIndex = 0
	si.downUntil = si.downUntil[:0]
	si.cutUntil = si.cutUntil[:0]
	si.chosen.Crashes = si.chosen.Crashes[:0]
	si.chosen.Fates = si.chosen.Fates[:0]
	si.chosen.Cuts = si.chosen.Cuts[:0]
}

// Install wires the decision space into a run: the injector becomes the
// network's per-message fault source and one decision event is
// scheduled per crash/cut point. With no chooser attached every
// decision is canonical and the run injects nothing.
func (si *SpaceInjector) Install(k *sim.Kernel, n *netsim.Network, sites int, hooks Hooks) {
	si.k, si.n, si.sites, si.hooks = k, n, sites, hooks
	for len(si.downUntil) < sites {
		si.downUntil = append(si.downUntil, 0)
	}
	for len(si.cutUntil) < sites {
		si.cutUntil = append(si.cutUntil, 0)
	}
	if si.space.MaxMsgFates > 0 {
		n.SetInjector(si)
	}
	for _, at := range si.space.CrashPoints {
		at := at
		k.At(sim.Time(at), func() { si.crashDecision(at) })
	}
	for _, at := range si.space.CutPoints {
		at := at
		k.At(sim.Time(at), func() { si.cutDecision(at) })
	}
}

func (si *SpaceInjector) crashDecision(at int64) {
	pick := si.k.ChooseQuiet(sim.ChooseCrash, 1+si.sites)
	if pick == 0 {
		return
	}
	site := pick - 1
	if si.downUntil[site] > at {
		return
	}
	recover := int64(-1)
	rec := int64(0)
	if si.space.DownFor > 0 {
		recover = at + si.space.DownFor
		rec = recover
		si.downUntil[site] = recover
	} else {
		si.downUntil[site] = math.MaxInt64
	}
	si.chosen.Crashes = append(si.chosen.Crashes, ChosenCrash{Site: site, At: at, RecoverAt: rec})
	si.k.Journal().Append(int64(si.k.Now()), journal.KFaultCrash, int32(site), 0, 0, recover, 0, "")
	applyCrash(si.k, si.n, si.hooks, db.SiteID(site), recover)
	if recover > 0 {
		s := db.SiteID(site)
		si.k.At(sim.Time(recover), func() {
			applyRecover(si.k, si.n, si.hooks, s)
		})
	}
}

func (si *SpaceInjector) cutDecision(at int64) {
	pick := si.k.ChooseQuiet(sim.ChooseCut, 1+si.sites)
	if pick == 0 {
		return
	}
	site := pick - 1
	if si.cutUntil[site] > at {
		return
	}
	heal := int64(-1)
	hl := int64(0)
	if si.space.CutFor > 0 {
		heal = at + si.space.CutFor
		hl = heal
		si.cutUntil[site] = heal
	} else {
		si.cutUntil[site] = math.MaxInt64
	}
	mask := int64(1) << uint(site)
	pairs := partitionPairs([]int{site}, si.sites)
	si.chosen.Cuts = append(si.chosen.Cuts, ChosenCut{Site: site, At: at, HealAt: hl})
	si.k.Journal().Append(int64(si.k.Now()), journal.KFaultCut, int32(site), 0, 0, mask, heal, "")
	applyCut(si.k, si.n, pairs, mask, true)
	if heal > 0 {
		si.k.At(sim.Time(heal), func() {
			applyCut(si.k, si.n, pairs, mask, false)
		})
	}
}

// Deliveries surfaces one fate decision per inter-site message for the
// first MaxMsgFates consults; canonical picks deliver normally.
func (si *SpaceInjector) Deliveries(now sim.Time, from, to db.SiteID) []sim.Duration {
	idx := si.msgIndex
	si.msgIndex++
	if idx >= int64(si.space.MaxMsgFates) {
		return oneCopy
	}
	alts := 2
	if si.space.AllowDup {
		alts = 3
	}
	pick := si.k.ChooseQuiet(sim.ChooseFate, alts)
	if pick == 0 {
		return oneCopy
	}
	si.chosen.Fates = append(si.chosen.Fates, ChosenFate{Msg: idx, From: int(from), To: int(to), Fate: pick})
	si.k.Journal().Append(int64(now), journal.KFaultFate, int32(from), idx, 0, int64(to), int64(pick), "")
	if pick == FateDrop {
		return nil
	}
	si.dup[0], si.dup[1] = 0, 0
	return si.dup[:]
}

// ChosenPlan returns the exact fault plan this run suffered, or nil
// when every decision was canonical. Replaying the returned plan
// (without a chooser) through Injector regenerates a byte-identical
// journal for the same (seed, config) key.
func (si *SpaceInjector) ChosenPlan() *Plan {
	if si.chosen.empty() {
		return nil
	}
	c := &ChosenFaults{}
	if len(si.chosen.Crashes) > 0 {
		c.Crashes = append([]ChosenCrash(nil), si.chosen.Crashes...)
	}
	if len(si.chosen.Fates) > 0 {
		c.Fates = append([]ChosenFate(nil), si.chosen.Fates...)
	}
	if len(si.chosen.Cuts) > 0 {
		c.Cuts = append([]ChosenCut(nil), si.chosen.Cuts...)
	}
	return &Plan{Chosen: c}
}
