package main

// The six workloads. Each is a list of parts (one simulation or one
// exploration each); a rep runs every part once. A part has two paths
// that must leave the same simulated fingerprint: the facade path the
// end-to-end metrics time, and a phased path built from public calls with
// a span around each phase, which the traced rep uses.

import (
	"fmt"
	"runtime"
	"strings"

	"rtlock"
	"rtlock/internal/audit"
	"rtlock/internal/db"
	"rtlock/internal/experiments"
	"rtlock/internal/explore"
	"rtlock/internal/metrics"
	"rtlock/internal/place"
	"rtlock/internal/workload"
)

// workloadDef names one workload and builds its parts from the seed, the
// only input to generation. scale shrinks every count by one factor (the
// self-test runs at 1/100).
type workloadDef struct {
	name  string
	why   string
	parts func(seed int64, scale float64) []part
}

// part is one simulation (or exploration) of a rep.
type part struct {
	label  string
	facade func() (partOut, error)
	phased func(tr *tracer, parent int) (partOut, error)
}

// partOut is what one part leaves behind.
type partOut struct {
	ops       int // transactions processed, or schedules executed
	committed int
	messages  int
	fp        string   // simulated fingerprint
	findings  []string // auditor violations: listed, never fatal
	failures  []string // explorer counterexamples
	keep      any      // the result, kept referenced for live_heap_mb

	// Phased path only.
	jhash   string
	records int
	reg     *metrics.Registry
}

// Paper defaults of the single-site experiments, written out because the
// phased path must hand the generator exactly what the facade would.
const (
	paperDBSize    = 200
	paperCPUPerObj = 10 * rtlock.Millisecond
	paperIOPerObj  = 20 * rtlock.Millisecond
	slackMin       = 4
	slackMax       = 8
)

func scaled(n int, scale float64) int { return max(2, int(float64(n)*scale)) }

var workloads = []workloadDef{
	{
		name: wSinglePlain,
		why:  "protocol C at paper defaults, no journal: kernel dispatch, goroutine hand-off, ceiling manager and txn do all the work; journal, audit and netsim none",
		parts: func(seed int64, scale float64) []part {
			return []part{singlePart("", rtlock.SingleSiteConfig{
				Protocol: rtlock.Ceiling, DBSize: paperDBSize, CPUPerObj: paperCPUPerObj, IOPerObj: paperIOPerObj,
				Workload: rtlock.WorkloadConfig{Seed: seed, Count: scaled(40000, scale),
					MeanInterarrival: 450 * rtlock.Millisecond, MeanSize: 10, SlackMin: slackMin, SlackMax: slackMax},
			})}
		},
	},
	{
		name: wSingleRestart,
		why:  "protocol HP (abort and restart, not block) on a 20-object hot database: the wound and ReleaseAll path and restart bookkeeping dominate, so trading blocking for aborting shows as a loss",
		parts: func(seed int64, scale float64) []part {
			return []part{singlePart("", rtlock.SingleSiteConfig{
				Protocol: rtlock.TwoPLHighPriority, DBSize: 20, CPUPerObj: paperCPUPerObj, IOPerObj: paperIOPerObj,
				Workload: rtlock.WorkloadConfig{Seed: seed, Count: scaled(32000, scale),
					MeanInterarrival: 450 * rtlock.Millisecond, MeanSize: 10, SlackMin: slackMin, SlackMax: slackMax},
			})}
		},
	},
	{
		name: wSingleAudit,
		why:  "protocol C with journal and auditors, eight short runs per rep: journal append, hashing and auditor replay are about half the time",
		parts: func(seed int64, scale float64) []part {
			var ps []part
			for i := int64(0); i < 8; i++ {
				ps = append(ps, singlePart(fmt.Sprintf("seed+%d", i), rtlock.SingleSiteConfig{
					Protocol: rtlock.Ceiling, DBSize: paperDBSize, CPUPerObj: paperCPUPerObj, IOPerObj: paperIOPerObj,
					Audit: true,
					Workload: rtlock.WorkloadConfig{Seed: seed + i, Count: scaled(2000, scale),
						MeanInterarrival: 450 * rtlock.Millisecond, MeanSize: 10, SlackMin: slackMin, SlackMax: slackMax},
				}))
			}
			return ps
		},
	},
	{
		name: wDistModes,
		why:  "the five execution paths of internal/dist in turn at a load where each commits over 90%: dist, netsim and place do the work; the guard for folding five paths into one",
		parts: func(seed int64, scale float64) []part {
			var ps []part
			for _, mode := range distModes {
				cfg := rtlock.DistributedConfig{
					Sites: 4, DBSize: paperDBSize, CommDelay: 2 * rtlock.Millisecond, CPUPerObj: paperCPUPerObj,
					Workload: rtlock.WorkloadConfig{Seed: seed, Count: scaled(4800, scale),
						MeanInterarrival: 120 * rtlock.Millisecond, MeanSize: 6, SlackMin: slackMin, SlackMax: slackMax},
				}
				switch mode {
				case "local":
					cfg.Sites = 3
				case "global":
					cfg.Sites = 3
					cfg.Global = true
				default:
					cfg.Placement = mode
					cfg.Workload.LocalityProb = 0.7
				}
				ps = append(ps, distPart(mode, cfg))
			}
			return ps
		},
	},
	{
		name: wStream,
		why:  "the streaming soak (bursts, timeline, 4096-record cap) on 10000 objects: workload generation is about three quarters of it, and live_heap_mb is the O(windows + cap) guarantee",
		parts: func(seed int64, scale float64) []part {
			return []part{streamPart(seed, scaled(12000, scale))}
		},
	},
	{
		name: wExplore,
		why:  "thousands of tiny runs under the schedule explorer: per-run construction, teardown, journal hashing and the worker pool weigh as much as the run loop",
		parts: func(seed int64, scale float64) []part {
			opts := func(budget int) rtlock.ExploreOptions {
				return rtlock.ExploreOptions{Strategy: rtlock.ExploreDFS, Schedules: scaled(budget, scale),
					MaxDepth: 24, Branch: 3, Workers: runtime.GOMAXPROCS(0)}
			}
			return []part{
				explorePart("single-hp", seed, rtlock.ExploreConfig{Protocol: rtlock.TwoPLHighPriority, Options: opts(150)}),
				explorePart("faults-local", seed, rtlock.ExploreConfig{Faults: true, Options: opts(75)}),
			}
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func violationStrings(label string, vs []rtlock.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strings.TrimSpace(label + " " + v.String())
	}
	return out
}

func simOut(label string, s rtlock.Summary, messages int, keep any) partOut {
	return partOut{ops: s.Processed, committed: s.Committed, messages: messages, keep: keep,
		fp: fmt.Sprintf("%s{processed=%d committed=%d missed=%d restarts=%d messages=%d}",
			label, s.Processed, s.Committed, s.Missed, s.Restarts, messages)}
}

// tracedRun finishes a phased simulation part: it hashes and audits the
// journal of res under their own spans.
func tracedRun(tr *tracer, parent int, label string, res *rtlock.Result, auds []rtlock.Auditor) partOut {
	out := simOut(label, res.Summary, res.Messages, res)
	id := tr.begin("hash", parent)
	out.jhash = res.Journal.HashString()
	tr.end(id)
	id = tr.begin("audit", parent)
	out.findings = violationStrings(label, rtlock.AuditJournal(res.Journal, auds...))
	tr.end(id)
	out.records = res.Journal.Len()
	out.reg = res.Metrics
	return out
}

// sparseSamples keeps the registry of a traced rep from growing a sample
// row per 100 ms of virtual time: only the final counters are read.
const sparseSamples = rtlock.Duration(1) << 50

func singlePart(label string, cfg rtlock.SingleSiteConfig) part {
	return part{
		label: label,
		facade: func() (partOut, error) {
			res, err := rtlock.RunSingleSite(cfg)
			if err != nil {
				return partOut{}, err
			}
			out := simOut(label, res.Summary, 0, res)
			out.findings = violationStrings(label, res.Violations)
			return out, nil
		},
		phased: func(tr *tracer, parent int) (partOut, error) {
			id := tr.begin("gen", parent)
			txs, err := generateSingle(cfg)
			tr.end(id)
			if err != nil {
				return partOut{}, err
			}
			traced := cfg
			traced.Workload.Transactions = txs
			traced.Audit = false
			traced.Journal = true
			traced.Metrics = true
			traced.MetricsInterval = sparseSamples
			id = tr.begin("run", parent)
			res, err := rtlock.RunSingleSite(traced)
			tr.end(id)
			if err != nil {
				return partOut{}, err
			}
			auds, err := rtlock.AuditorsForProtocol(cfg.Protocol)
			if err != nil {
				return partOut{}, err
			}
			return tracedRun(tr, parent, label, res, auds), nil
		},
	}
}

// generateSingle builds the load RunSingleSite would stream for cfg.
func generateSingle(cfg rtlock.SingleSiteConfig) ([]*rtlock.Txn, error) {
	cat, err := db.NewCatalog(1, cfg.DBSize)
	if err != nil {
		return nil, err
	}
	perObj := cfg.CPUPerObj + cfg.IOPerObj
	if cfg.MemoryResident {
		perObj = cfg.CPUPerObj
	}
	w := cfg.Workload
	return workload.Generate(workload.Params{
		Seed: w.Seed, Catalog: cat, Count: w.Count, MeanInterarrival: w.MeanInterarrival,
		MeanSize: w.MeanSize, PerObjCost: perObj, SlackMin: w.SlackMin, SlackMax: w.SlackMax,
		BurstFactor: w.BurstFactor, BurstOn: w.BurstOn, BurstOff: w.BurstOff,
	})
}

func distPart(label string, cfg rtlock.DistributedConfig) part {
	return part{
		label: label,
		facade: func() (partOut, error) {
			res, err := rtlock.RunDistributed(cfg)
			if err != nil {
				return partOut{}, err
			}
			return simOut(label, res.Summary, res.Messages, res), nil
		},
		phased: func(tr *tracer, parent int) (partOut, error) {
			id := tr.begin("gen", parent)
			txs, auds, err := generateDist(cfg)
			tr.end(id)
			if err != nil {
				return partOut{}, err
			}
			traced := cfg
			traced.Workload.Transactions = txs
			traced.Journal = true
			traced.Metrics = true
			traced.MetricsInterval = sparseSamples
			id = tr.begin("run", parent)
			res, err := rtlock.RunDistributed(traced)
			tr.end(id)
			if err != nil {
				return partOut{}, err
			}
			return tracedRun(tr, parent, label, res, auds), nil
		},
	}
}

// generateDist rebuilds the catalog RunDistributed derives from cfg's
// placement, generates the load over it, and picks the mode's auditors.
func generateDist(cfg rtlock.DistributedConfig) ([]*rtlock.Txn, []rtlock.Auditor, error) {
	var pm place.Map
	var auds []rtlock.Auditor
	var err error
	switch cfg.Placement {
	case "":
		pm, err = place.NewFull(cfg.Sites, cfg.DBSize)
		auds = rtlock.AuditorsForDistributed(cfg.Global)
	case "shard":
		pm, err = place.NewSharded(cfg.Sites, cfg.DBSize, place.RangePartition)
	case "quorum":
		k := min(3, cfg.Sites)
		r := k/2 + 1
		pm, err = place.NewQuorum(cfg.Sites, cfg.DBSize, place.RangePartition, k, r, k-r+1)
	case "primary":
		pm, err = place.NewPrimaryOnly(cfg.Sites, cfg.DBSize, place.RangePartition)
	default:
		err = fmt.Errorf("bench: unknown placement %q", cfg.Placement)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.Placement != "" {
		auds = audit.ForPlacement(cfg.Placement)
	}
	cat, err := db.NewCatalogWithPlacement(pm)
	if err != nil {
		return nil, nil, err
	}
	w := cfg.Workload
	txs, err := workload.Generate(workload.Params{
		Seed: w.Seed, Catalog: cat, Count: w.Count, MeanInterarrival: w.MeanInterarrival,
		MeanSize: w.MeanSize, PerObjCost: cfg.CPUPerObj, SlackMin: w.SlackMin, SlackMax: w.SlackMax,
		LocalWriteSets: cfg.Placement == "", LocalityProb: w.LocalityProb,
	})
	return txs, auds, err
}

func streamPart(seed int64, count int) part {
	// LongRun's defaults, written out for the phased twin.
	p := experiments.LongRunParams{
		Protocol: experiments.ProtoCeiling, Seed: seed, Count: count, DBSize: 10000,
		CPUPerObj: rtlock.Millisecond, MeanSize: 4, MeanInterarrival: 6 * rtlock.Millisecond,
		BurstFactor: 3, BurstOn: 2 * rtlock.Second, BurstOff: 8 * rtlock.Second,
		Window: 10 * rtlock.Second, MaxRawRecords: 4096,
	}
	twin := rtlock.SingleSiteConfig{
		Protocol: rtlock.Ceiling, DBSize: p.DBSize, CPUPerObj: p.CPUPerObj, MemoryResident: true,
		TimelineWindow: p.Window, MaxRawRecords: p.MaxRawRecords,
		Workload: rtlock.WorkloadConfig{Seed: seed, Count: count, MeanInterarrival: p.MeanInterarrival,
			MeanSize: p.MeanSize, SlackMin: slackMin, SlackMax: slackMax,
			BurstFactor: p.BurstFactor, BurstOn: p.BurstOn, BurstOff: p.BurstOff},
	}
	phased := singlePart("", twin).phased
	return part{
		facade: func() (partOut, error) {
			res, err := experiments.LongRun(p)
			if err != nil {
				return partOut{}, err
			}
			return simOut("", res.Summary, 0, res), nil
		},
		phased: phased,
	}
}

// exploreSeeds is how many workloads one explore part searches, at seeds
// s...s+15. A schedule's cost follows the 24-transaction load it replays
// (allocations per schedule differ by 10% between seeds), so a part
// averages over several loads to keep a rep's cost a property of the
// explorer rather than of one seed.
const exploreSeeds = 16

// explorePart explores cfg's target once per workload seed and sums the
// reports; search explores one seed's tree.
func explorePart(label string, seed int64, cfg rtlock.ExploreConfig) part {
	sum := func(search func(rtlock.ExploreConfig) (*rtlock.ExploreReport, error)) (partOut, error) {
		var total rtlock.ExploreReport
		out := partOut{}
		for i := int64(0); i < exploreSeeds; i++ {
			c := cfg
			c.Seed = seed + i
			rep, err := search(c)
			if err != nil {
				return partOut{}, err
			}
			total.Explored += rep.Explored
			total.Distinct += rep.Distinct
			total.Pruned += rep.Pruned
			total.Frontier += rep.Frontier
			total.Deepest = max(total.Deepest, rep.Deepest)
			for _, cx := range rep.Counterexamples {
				out.failures = append(out.failures, fmt.Sprintf("%s seed=%d counterexample %s schedule=%v", label, c.Seed, cx.Rule, cx.Schedule))
			}
		}
		out.ops = total.Explored
		out.fp = fmt.Sprintf("%s{explored=%d distinct=%d pruned=%d frontier=%d deepest=%d counterexamples=%d}",
			label, total.Explored, total.Distinct, total.Pruned, total.Frontier, total.Deepest, len(out.failures))
		return out, nil
	}
	return part{
		label:  label,
		facade: func() (partOut, error) { return sum(rtlock.Explore) },
		// The explorer generates, runs, hashes and audits inside every
		// schedule, where no outside span can reach: target construction
		// is the gen span and the whole search the run span.
		phased: func(tr *tracer, parent int) (partOut, error) {
			return sum(func(c rtlock.ExploreConfig) (*rtlock.ExploreReport, error) {
				id := tr.begin("gen", parent)
				tgt, err := exploreTarget(c)
				tr.end(id)
				if err != nil {
					return nil, err
				}
				id = tr.begin("run", parent)
				defer tr.end(id)
				return explore.Run(tgt, c.Options)
			})
		},
	}
}

func exploreTarget(cfg rtlock.ExploreConfig) (explore.Target, error) {
	if cfg.Faults {
		return explore.FaultTarget(explore.FaultOpts{Global: cfg.Global, Seed: cfg.Seed})
	}
	mk, disc, err := experiments.ManagerFor(cfg.Protocol)
	if err != nil {
		return explore.Target{}, err
	}
	return explore.SingleSiteTarget(explore.SingleSiteOpts{
		Proto: string(cfg.Protocol), NewManager: mk, Discipline: disc, Seed: cfg.Seed})
}
