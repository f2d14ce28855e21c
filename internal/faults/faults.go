// Package faults is the deterministic fault-injection subsystem: a
// declarative Plan of site crash/recovery windows, per-link message
// faults (drop, duplicate, delay jitter), and symmetric network
// partitions, compiled into an Injector that the network consults on
// every inter-site message. All randomness — both when generating a
// plan and when rolling per-message fates — comes from seeded PRNG
// streams consumed in deterministic kernel order, so identical
// (seed, config, plan) triples produce byte-identical replay journals.
//
// Armed with a Space, the same Injector surfaces fault decisions to the
// kernel's chooser; the faults picked export as a plan's Chosen
// section, whose unarmed replay injects them through the same methods
// and, under the same journal key, journals byte-identically.
//
// An empty plan is a strict no-op: it draws no random numbers,
// schedules no events, and appends no journal records, so a run with
// an empty plan is byte-identical to a run without the subsystem.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Times in a plan are virtual-time ticks (1 tick = 1µs), matching the
// simulation kernel, so plans are plain integers in JSON.

// Crash takes a site down at At and (optionally) brings it back at
// RecoverAt. A crash loses the site's volatile state — in-flight
// transactions and unresolved commit-protocol bookkeeping — while its
// write-ahead log survives and is replayed on recovery. RecoverAt <= At
// means the site stays down for the rest of the run.
type Crash struct {
	Site      int   `json:"site"`
	At        int64 `json:"at"`
	RecoverAt int64 `json:"recover_at,omitempty"`
}

// LinkFault injects message-level faults on a directed link while
// active. From/To of -1 match any site. A message rolled on an active
// rule is dropped with probability Drop; surviving messages are
// duplicated with probability Dup and each delivered copy gains an
// independent uniform delay in [0, JitterMax] ticks. End <= Start means
// the rule stays active for the rest of the run.
type LinkFault struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Start     int64   `json:"start,omitempty"`
	End       int64   `json:"end,omitempty"`
	Drop      float64 `json:"drop,omitempty"`
	Dup       float64 `json:"dup,omitempty"`
	JitterMax int64   `json:"jitter_max,omitempty"`
}

// Partition symmetrically cuts every link between the sites in GroupA
// and the rest of the cluster from At until HealAt (HealAt <= At means
// it never heals). Sites within a group communicate normally.
type Partition struct {
	GroupA []int `json:"group_a"`
	At     int64 `json:"at"`
	HealAt int64 `json:"heal_at,omitempty"`
}

// Message fates a fault-space exploration can choose for one inter-site
// message.
const (
	// FateDrop loses the message.
	FateDrop = 1
	// FateDup delivers two copies.
	FateDup = 2
)

// ChosenFate is one exact message-fate decision: the Msg-th inter-site
// message the injector is consulted about (a deterministic ordinal)
// suffers Fate. From/To record the link for readability; the ordinal
// alone identifies the message.
type ChosenFate struct {
	Msg  int64 `json:"msg"`
	From int   `json:"from"`
	To   int   `json:"to"`
	Fate int   `json:"fate"`
}

// ChosenCut is one exact partition decision: site Site is isolated from
// every other site at tick At and reconnected at HealAt (HealAt <= At
// means never).
type ChosenCut struct {
	Site   int   `json:"site"`
	At     int64 `json:"at"`
	HealAt int64 `json:"heal_at,omitempty"`
}

// ChosenFaults is the exact-fault section of a plan: the decision
// sequence a fault-space exploration committed to, exported from a
// counterexample so the precise failure schedule replays without a
// chooser. Unlike the stochastic sections, chosen faults draw no random
// numbers and journal themselves as KFaultCrash/KFaultFate/KFaultCut at
// the decision instants.
type ChosenFaults struct {
	// Crashes are exact crash decisions, shaped like a plan's crashes.
	Crashes []Crash      `json:"crashes,omitempty"`
	Fates   []ChosenFate `json:"fates,omitempty"`
	Cuts    []ChosenCut  `json:"cuts,omitempty"`
}

func (c *ChosenFaults) empty() bool {
	return c == nil || (len(c.Crashes) == 0 && len(c.Fates) == 0 && len(c.Cuts) == 0)
}

// Plan is one run's declarative fault schedule.
type Plan struct {
	Crashes    []Crash       `json:"crashes,omitempty"`
	Links      []LinkFault   `json:"links,omitempty"`
	Partitions []Partition   `json:"partitions,omitempty"`
	Chosen     *ChosenFaults `json:"chosen,omitempty"`
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Links) == 0 && len(p.Partitions) == 0 &&
		p.Chosen.empty())
}

// Validate checks the plan against a cluster size. Partition bitmasks
// ride in journal records, so sites must number below 64.
func (p *Plan) Validate(sites int) error {
	if p == nil {
		return nil
	}
	if sites < 1 {
		return fmt.Errorf("faults: sites must be >= 1, got %d", sites)
	}
	if sites > 63 {
		return fmt.Errorf("faults: at most 63 sites supported, got %d", sites)
	}
	if err := validCrashes("crash", p.Crashes, sites); err != nil {
		return err
	}
	for i, l := range p.Links {
		if l.From < -1 || l.From >= sites {
			return fmt.Errorf("faults: link %d: from %d out of range", i, l.From)
		}
		if l.To < -1 || l.To >= sites {
			return fmt.Errorf("faults: link %d: to %d out of range", i, l.To)
		}
		if l.Start < 0 {
			return fmt.Errorf("faults: link %d: negative start %d", i, l.Start)
		}
		if l.Drop < 0 || l.Drop > 1 {
			return fmt.Errorf("faults: link %d: drop %v outside [0,1]", i, l.Drop)
		}
		if l.Dup < 0 || l.Dup > 1 {
			return fmt.Errorf("faults: link %d: dup %v outside [0,1]", i, l.Dup)
		}
		if l.JitterMax < 0 {
			return fmt.Errorf("faults: link %d: negative jitter %d", i, l.JitterMax)
		}
	}
	for i, pt := range p.Partitions {
		if len(pt.GroupA) == 0 {
			return fmt.Errorf("faults: partition %d: empty group", i)
		}
		if pt.At < 0 {
			return fmt.Errorf("faults: partition %d: negative time %d", i, pt.At)
		}
		seen := make(map[int]bool, len(pt.GroupA))
		for _, s := range pt.GroupA {
			if s < 0 || s >= sites {
				return fmt.Errorf("faults: partition %d: site %d out of range [0,%d)", i, s, sites)
			}
			if seen[s] {
				return fmt.Errorf("faults: partition %d: duplicate site %d", i, s)
			}
			seen[s] = true
		}
		if len(pt.GroupA) == sites {
			return fmt.Errorf("faults: partition %d: group A contains every site", i)
		}
	}
	if p.Chosen != nil {
		if err := validCrashes("chosen crash", p.Chosen.Crashes, sites); err != nil {
			return err
		}
		last := int64(-1)
		for i, f := range p.Chosen.Fates {
			if f.Msg < 0 {
				return fmt.Errorf("faults: chosen fate %d: negative message ordinal %d", i, f.Msg)
			}
			if f.Msg <= last {
				return fmt.Errorf("faults: chosen fate %d: message ordinals must strictly increase", i)
			}
			last = f.Msg
			if f.From < 0 || f.From >= sites {
				return fmt.Errorf("faults: chosen fate %d: from %d out of range [0,%d)", i, f.From, sites)
			}
			if f.To < 0 || f.To >= sites {
				return fmt.Errorf("faults: chosen fate %d: to %d out of range [0,%d)", i, f.To, sites)
			}
			if f.Fate != FateDrop && f.Fate != FateDup {
				return fmt.Errorf("faults: chosen fate %d: fate %d not in {1,2}", i, f.Fate)
			}
		}
		for i, ct := range p.Chosen.Cuts {
			if ct.Site < 0 || ct.Site >= sites {
				return fmt.Errorf("faults: chosen cut %d: site %d out of range [0,%d)", i, ct.Site, sites)
			}
			if ct.At < 0 {
				return fmt.Errorf("faults: chosen cut %d: negative time %d", i, ct.At)
			}
			if sites < 2 {
				return fmt.Errorf("faults: chosen cut %d: nothing to cut with %d site(s)", i, sites)
			}
		}
	}
	return nil
}

// validCrashes checks one crash list of a plan; what names the list in
// errors.
func validCrashes(what string, crashes []Crash, sites int) error {
	for i, c := range crashes {
		if c.Site < 0 || c.Site >= sites {
			return fmt.Errorf("faults: %s %d: site %d out of range [0,%d)", what, i, c.Site, sites)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: %s %d: negative time %d", what, i, c.At)
		}
	}
	return nil
}

// mask returns the group-A bitmask of a partition (sites < 64, enforced
// by Validate).
func (pt *Partition) mask() int64 {
	var m int64
	for _, s := range pt.GroupA {
		m |= 1 << uint(s)
	}
	return m
}

// String renders the plan canonically — a stable, compact form suitable
// for journal config keys, so the plan is part of the determinism key.
// Non-empty sections are separated by ';', their entries by ','.
func (p *Plan) String() string {
	if p.Empty() {
		return "faults{}"
	}
	crash := func(c Crash) string { return fmt.Sprintf("crash(%d@%d-%d)", c.Site, c.At, c.RecoverAt) }
	secs := []string{
		list(p.Crashes, crash),
		list(p.Links, func(l LinkFault) string {
			return fmt.Sprintf("link(%d>%d@%d-%d,drop=%g,dup=%g,jit=%d)", l.From, l.To, l.Start, l.End, l.Drop, l.Dup, l.JitterMax)
		}),
		list(p.Partitions, func(pt Partition) string {
			groups := append([]int(nil), pt.GroupA...)
			sort.Ints(groups)
			return fmt.Sprintf("part(%v@%d-%d)", groups, pt.At, pt.HealAt)
		}),
	}
	if c := p.Chosen; !c.empty() {
		secs = append(secs, "chosen{"+sections(
			list(c.Crashes, crash),
			list(c.Fates, func(f ChosenFate) string { return fmt.Sprintf("fate(%d:%d>%d=%d)", f.Msg, f.From, f.To, f.Fate) }),
			list(c.Cuts, func(ct ChosenCut) string { return fmt.Sprintf("cut(%d@%d-%d)", ct.Site, ct.At, ct.HealAt) }),
		)+"}")
	}
	return "faults{" + sections(secs...) + "}"
}

// list renders each entry of one plan section, comma-separated.
func list[T any](xs []T, entry func(T) string) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = entry(x)
	}
	return strings.Join(out, ",")
}

// sections joins the non-empty sections of a plan string with ';'.
func sections(secs ...string) string {
	out := secs[:0]
	for _, s := range secs {
		if s != "" {
			out = append(out, s)
		}
	}
	return strings.Join(out, ";")
}

// Parse decodes a JSON plan, rejecting unknown fields so typos in plan
// files fail loudly instead of silently injecting nothing.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("faults: trailing data after plan")
	}
	return &p, nil
}
