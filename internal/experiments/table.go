package experiments

import (
	"fmt"
	"math"
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/dist"
	"rtlock/internal/place"
	"rtlock/internal/workload"
)

// Set orders the table's rows by how widely they are reproduced; each
// set contains the ones after it.
type Set int

const (
	ByName  Set = iota // every row: run when asked for by name
	InAll              // what `rtdbsim -experiment all` regenerates into results/figures
	InPaper            // the paper's figures and the three ablations it describes (rtlock.ReproduceAll)
)

// row is one experiment: the figure's header, its two axes, and per
// series the cell plotted at each x and the metric read off it. The
// Sweep does the rest, so adding an experiment is adding a row.
type row struct {
	Figure
	set  Set
	kind rowKind
	// pct marks an x axis of fractions plotted as percentages.
	pct    bool
	xs     func(p *Params) []float64
	series func(p *Params) []series
}

// rowKind is the mode of a row's cells, which a base spec must share.
type rowKind int

const (
	singleRow rowKind = iota
	distRow
	faultRow // distributed, each run under a fault plan of its own
)

// series is one curve: the cell at x and the metric whose mean±std over
// the cell's runs is the point. A derived series also names a reference
// cell and plots ratio(mean at cell, mean at over) instead.
type series struct {
	label string
	cell  func(x float64) cell
	y     metric
	over  func(x float64) cell
	ratio func(num, den float64) float64
}

// metric reads one run's y value; ok=false drops the run from the point.
type metric func(o *Result) (y float64, ok bool)

func missed(o *Result) (float64, bool)     { return o.Summary.MissedPct, true }
func throughput(o *Result) (float64, bool) { return o.Summary.Throughput, true }
func respMs(o *Result) (float64, bool)     { return o.Summary.AvgResp.Millis(), true }

// recoveryMs is the estimated restart time at the end of a WAL run.
func recoveryMs(o *Result) (float64, bool) { return o.Recovery.EstimatedRestart.Millis(), true }

// tailRatio is p99/p50 response of committed transactions.
func tailRatio(o *Result) (float64, bool) {
	if o.Summary.RespP50 <= 0 {
		return 0, false
	}
	return float64(o.Summary.RespP99) / float64(o.Summary.RespP50), true
}

// inconsistentPct is the share of classified read-only views that could
// never have coexisted (local-approach runs).
func inconsistentPct(o *Result) (float64, bool) {
	r := o.Replication
	return pct(r.InconsistentViews, r.ConsistentViews+r.InconsistentViews), true
}

// lostPct is the share of sent messages lost (distributed runs).
func lostPct(o *Result) (float64, bool) { return pct(o.Net.Lost(), o.Net.Sent), true }

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// ratio guards against division by zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// fixed is a constant x axis.
func fixed(xs ...float64) func(*Params) []float64 {
	return func(*Params) []float64 { return xs }
}

func floats(ns []int) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n)
	}
	return out
}

func sizes(p *Params) []float64      { return floats(p.Single.Sizes) }
func mixes(p *Params) []float64      { return p.Dist.Mixes }
func delays(p *Params) []float64     { return p.Dist.DelayUnits }
func siteCounts(p *Params) []float64 { return floats(p.SiteSweep.Sites) }

// each builds one series per item.
func each[T any](items []T, one func(T) series) []series {
	out := make([]series, 0, len(items))
	for _, item := range items {
		out = append(out, one(item))
	}
	return out
}

// perProto plots y with one series per named protocol (default: the
// paper's C, P and L), swept as sw.
func perProto(y metric, sw sweep, protos ...Protocol) func(p *Params) []series {
	if protos == nil {
		protos = []Protocol{core.ProtoCeiling, core.ProtoTwoPLPrio, core.ProtoTwoPL}
	}
	return func(p *Params) []series {
		return each(protos, func(proto Protocol) series {
			return series{label: string(proto), y: y, cell: func(x float64) cell { return p.single(proto, sw, x) }}
		})
	}
}

// fig4Delays thins the delay axis for Figure 4's per-delay series to the
// small-delay regime, where both approaches still process most of their
// load (at large delays the global approach saturates and the ratio
// diverges; Figure 5 covers that regime).
func (p DistParams) fig4Delays() []float64 {
	return p.DelayUnits[:min(len(p.DelayUnits), 4)]
}

// missFloor compares miss percentages with light smoothing: a run of
// Count transactions cannot resolve rates below one miss, so both sides
// are floored at half a transaction's worth, keeping the ratio finite as
// the paper's plots are.
func (p DistParams) missFloor(global, local float64) float64 {
	floor := 100 * 0.5 / float64(p.Count)
	return math.Max(global, floor) / math.Max(local, floor)
}

// byPolicy plots y against site count, one series per placement policy.
func byPolicy(y metric) func(p *Params) []series {
	return func(p *Params) []series {
		return each(place.Policies(), func(pol place.Policy) series {
			return series{label: pol.String(), y: y, cell: func(x float64) cell { return p.site(pol, int(x)) }}
		})
	}
}

// severities is the fault axis sorted ascending with exact duplicates
// removed, so the sweep's row order is a function of the severity set
// alone — not of the order or repetition the caller wrote the slice in.
// The caller's slice is never mutated.
func severities(p *Params) []float64 {
	out := slices.Clone(p.Faults.Severities)
	slices.Sort(out)
	return slices.Compact(out)
}

// never is the recovery row's sentinel x for "no checkpoints".
const never = 99

// table is every experiment, in the order `all` prints them.
var table = []row{
	{
		Figure: Figure{Name: "fig2", Title: "Transaction Throughput (single site)",
			XLabel: "size", YLabel: "objects/second over committed transactions"},
		set: InPaper, xs: sizes, series: perProto(throughput, bySize),
	},
	{
		Figure: Figure{Name: "fig3", Title: "Percentage of Deadline Missing Transactions (single site)",
			XLabel: "size", YLabel: "% missed = 100*missed/processed"},
		set: InPaper, xs: sizes, series: perProto(missed, bySize),
	},
	{
		// Ratio of local-approach to global-approach throughput vs
		// transaction mix, one series per communication delay (the paper
		// reports the local approach 1.5–3× ahead even at delay 0).
		Figure: Figure{Name: "fig4", Title: "Transaction Throughput Ratio (local/global)",
			XLabel: "%read-only", YLabel: "throughput(local)/throughput(global)"},
		set: InPaper, kind: distRow, pct: true, xs: mixes,
		series: func(p *Params) []series {
			return each(p.Dist.fig4Delays(), func(d float64) series {
				return series{label: fmt.Sprintf("delay=%g", d), y: throughput, ratio: ratio,
					cell: func(mix float64) cell { return p.paper(dist.Local, mix, d) },
					over: func(mix float64) cell { return p.paper(dist.Global, mix, d) }}
			})
		},
	},
	{
		// Ratio of global-approach to local-approach %missed vs
		// communication delay at the 50/50 mix.
		Figure: Figure{Name: "fig5", Title: "Deadline Missing Ratio (global/local) at 50% read-only",
			XLabel: "delay", YLabel: "%missed(global)/%missed(local)"},
		set: InPaper, kind: distRow, xs: delays,
		series: func(p *Params) []series {
			return []series{{label: "global/local", y: missed, ratio: p.Dist.missFloor,
				cell: func(d float64) cell { return p.paper(dist.Global, 0.5, d) },
				over: func(d float64) cell { return p.paper(dist.Local, 0.5, d) }}}
		},
	},
	{
		// %missed vs mix for two specific delays, both approaches.
		Figure: Figure{Name: "fig6", Title: "Deadline Missing Transaction Percentage (distributed)",
			XLabel: "%read-only", YLabel: "% missed"},
		set: InPaper, kind: distRow, pct: true, xs: mixes,
		series: func(p *Params) []series {
			var out []series
			for _, d := range p.Dist.Fig6Delays {
				for _, mode := range []dist.Mode{dist.Global, dist.Local} {
					out = append(out, series{label: fmt.Sprintf("%s,delay=%g", mode, d), y: missed,
						cell: func(mix float64) cell { return p.paper(mode, mix, d) }})
				}
			}
			return out
		},
	},
	{
		// The experiment the paper ran but omitted from the figures
		// (§3.3): varying the database size, and thus the conflict
		// probability, at a fixed transaction size. The paper reports it
		// "only confirms" the other experiments — the protocol ordering
		// should not change, with misses falling as the database grows.
		Figure: Figure{Name: "dbsize", Title: "Database-size sweep (omitted experiment): %missed at fixed size",
			XLabel: "db objects", YLabel: "% missed"},
		set: InPaper, xs: fixed(60, 100, 150, 200, 300, 400, 600),
		series: perProto(missed, sweep{axisDBSize, 12}),
	},
	{
		// The question the paper's conclusion raises: does the read
		// semantics of locks (shared read locks with the write-priority
		// ceiling) help or hurt schedulability compared with
		// exclusive-only semantics? Sweeps the read-only fraction and
		// compares the ceiling protocol (C) with its exclusive-semantics
		// variant (CX).
		Figure: Figure{Name: "semantics", Title: "Read/write vs exclusive lock semantics in the ceiling protocol",
			XLabel: "%read-only", YLabel: "% missed"},
		set: InPaper, pct: true, xs: fixed(0, 0.25, 0.5, 0.75, 0.9),
		series: perProto(missed, sweep{axisMix, 10}, core.ProtoCeiling, core.ProtoCeilingX),
	},
	{
		// Basic priority inheritance (§3.1) against the ceiling protocol
		// and plain priority two-phase locking: inheritance bounds each
		// blocking but still allows chains of blocking and deadlock, so it
		// should land between P and C.
		Figure: Figure{Name: "inherit", Title: "Basic priority inheritance vs priority ceiling: %missed",
			XLabel: "size", YLabel: "% missed"},
		set: InPaper, xs: sizes, series: perProto(missed, bySize, core.ProtoCeiling, core.ProtoInherit, core.ProtoTwoPLPrio),
	},
	{
		// The paper's §5 question about preemption in real-time
		// transaction scheduling: aborting a lock holder frees the
		// resource immediately but wastes its completed work and forces a
		// redo that may push it (or others) past their deadlines. Compares
		// blocking-based protocols (C, P) against abort-based ones:
		// High-Priority wounding (HP), conditional restart (CR), deadlock
		// detection (DD), and timestamp ordering (TO).
		Figure: Figure{Name: "restart", Title: "Blocking vs abort-based protocols: %missed",
			XLabel: "size", YLabel: "% missed"},
		set: InAll, xs: sizes,
		series: perProto(missed, bySize, core.ProtoCeiling, core.ProtoTwoPLPrio, core.ProtoTwoPLHP, core.ProtoTwoPLCR, core.ProtoTwoPLDD, core.ProtoTimestamp),
	},
	{
		// The priority-assignment policy under the ceiling protocol:
		// earliest deadline first (the paper's choice), first-come-first-
		// served, least slack, and random. Shows how much of the ceiling
		// protocol's performance comes from deadline-cognizant priorities
		// rather than from the protocol machinery itself.
		Figure: Figure{Name: "priority", Title: "Priority assignment policies under the ceiling protocol: %missed",
			XLabel: "size", YLabel: "% missed"},
		set: InAll, xs: sizes,
		series: func(p *Params) []series {
			type policy struct {
				label string
				workload.PriorityPolicy
			}
			return each([]policy{{"EDF", workload.PriorityEDF}, {"FCFS", workload.PriorityFCFS},
				{"SLACK", workload.PrioritySlack}, {"RANDOM", workload.PriorityRandom}}, func(pol policy) series {
				return series{label: pol.label, y: missed, cell: func(x float64) cell {
					c := p.single(ProtoCeiling, bySize, x)
					c.policy = pol.PriorityPolicy
					return c
				}}
			})
		},
	},
	{
		// Skews object selection toward a small hot region
		// (contemporaneous simulators' standard contention knob) and
		// compares the protocols as the conflict rate rises: the
		// direct-blocking protocols should suffer steeply, the ceiling
		// protocol — whose blocking is governed by active-transaction
		// ceilings rather than the objects actually touched — more gently.
		Figure: Figure{Name: "hotspot", Title: "Hotspot skew sweep: %missed at fixed size",
			XLabel: "%hot accesses", YLabel: "% missed"},
		set: InAll, pct: true, xs: fixed(0, 0.25, 0.5, 0.75, 0.9),
		series: perProto(missed, sweep{axisHotspot, 12}),
	},
	{
		// What the ceiling protocol actually buys: bounded, predictable
		// blocking. A protocol may post excellent averages (High-Priority
		// wounding) while its victims' redone work stretches the tail.
		Figure: Figure{Name: "predictability", Title: "Response-time tail ratio (p99/p50) of committed transactions",
			XLabel: "size", YLabel: "p99/p50 response"},
		set: InAll, xs: sizes,
		series: perProto(tailRatio, bySize, core.ProtoCeiling, core.ProtoTwoPLPrio, core.ProtoTwoPLHP, core.ProtoTimestamp),
	},
	{
		// A larger page buffer converts I/O delays into hits, shortening
		// lock-holding windows and reducing deadline misses for every
		// protocol (and shifting the workload from I/O-bound toward
		// CPU-bound, the axis the paper's Figure 2 discussion mentions).
		Figure: Figure{Name: "buffer", Title: "Page-buffer size sweep: %missed at fixed size",
			XLabel: "buffer pages", YLabel: "% missed"},
		set: InAll, xs: fixed(0, 25, 50, 100, 200),
		series: perProto(missed, sweep{axisBuffer, 14}),
	},
	{
		// The paper's closing §4 idea: reading each replica's latest copy
		// risks temporally inconsistent views (the set of versions read
		// could never have coexisted), while multi-version snapshot reads
		// pin every read-only transaction to one instant. Sweeps the
		// communication delay at a read-heavy mix.
		Figure: Figure{Name: "consistency", Title: "Temporal consistency of read-only views (local approach)",
			XLabel: "delay", YLabel: "% inconsistent views"},
		set: InAll, kind: distRow, xs: delays,
		series: func(p *Params) []series {
			return each([]string{"latest", "snapshot"}, func(reads string) series {
				return series{label: reads, y: inconsistentPct, cell: func(d float64) cell {
					c := p.paper(dist.Local, 0.7, d)
					c.set |= setMultiversion
					c.multiversion = reads == "snapshot"
					return c
				}}
			})
		},
	},
	{
		// Where to put the global ceiling manager on a non-uniform
		// interconnect: a star network with the GCM either at the hub (one
		// link from everyone) or at a leaf (two links from the other
		// leaves). The paper notes all ceiling information lives "at the
		// site of the global ceiling manager"; placement is the first
		// operational question that raises.
		Figure: Figure{Name: "placement", Title: "GCM placement on a star interconnect: %missed",
			XLabel: "link delay", YLabel: "% missed"},
		set: InAll, kind: distRow, xs: delays,
		series: func(p *Params) []series {
			return each([]string{"hub", "leaf"}, func(gcm string) series {
				return series{label: gcm, y: missed, cell: func(d float64) cell {
					c := p.paper(dist.Global, 0.5, d)
					c.star = true // around site 0
					if gcm == "leaf" {
						c.gcm = 1
					}
					return c
				}}
			})
		},
	},
	{
		// The periodic/aperiodic mix the paper's UI exposes ("transaction
		// types ... periodic/aperiodic"): the tracking model's repetitive
		// scans re-use one access set per stream and carry implicit
		// (next-period) deadlines. Stream reuse concentrates conflicts on
		// the streams' objects while the periodic deadlines are typically
		// looser than size-proportional ones.
		Figure: Figure{Name: "periodic", Title: "Periodic/aperiodic mix sweep: %missed at fixed size",
			XLabel: "%periodic", YLabel: "% missed"},
		set: InAll, pct: true, xs: fixed(0, 0.25, 0.5, 0.75, 1),
		series: perProto(missed, sweep{axisPeriodic, 12}),
	},
	{
		// Protocol bookkeeping is not free, and a protocol's advantage
		// must survive its own overhead. All protocols pay the same CPU
		// cost per lock operation here; what differs is how many
		// operations their outcomes buy.
		Figure: Figure{Name: "overhead", Title: "Lock-operation CPU overhead sweep: %missed at fixed size",
			XLabel: "overhead ms", YLabel: "% missed"},
		set: InAll, xs: fixed(0, 0.5, 1, 2, 4),
		series: perProto(missed, sweep{axisOverhead, 12}),
	},
	{
		// Both sides of the classic checkpoint trade-off under the ceiling
		// protocol: frequent checkpoints stall transactions (their
		// snapshot CPU runs at top priority) but bound the redo tail, so
		// restart is fast; rare checkpoints are cheap online but leave a
		// long redo. "recovery_ms" is the estimated restart time at the
		// end of the run.
		Figure: Figure{Name: "recovery", Title: "Checkpoint interval trade-off (ceiling protocol, WAL on)",
			XLabel: "interval s", YLabel: "%missed / recovery ms"},
		set: InAll, xs: fixed(0.25, 0.5, 1, 2, 4, never),
		series: func(p *Params) []series {
			at := func(x float64) cell { return p.single(ProtoCeiling, sweep{axisCheckpoint, 10}, x) }
			return []series{{label: "missed_pct", y: missed, cell: at}, {label: "recovery_ms", y: recoveryMs, cell: at}}
		},
	},
	{
		// Graceful degradation: the Figures 4–6 setting (delay 2, one mix)
		// rerun under generated fault plans of increasing severity, with
		// the message loss rate alongside. Severity 0 anchors the curves
		// to the fault-free results; every faulted run still passes the
		// fault-aware auditors under Audit — degraded, never incorrect.
		Figure: Figure{Name: "faultsweep", Title: "Graceful degradation under injected faults",
			XLabel: "severity", YLabel: "% missed"},
		kind: faultRow, xs: severities,
		series: func(p *Params) []series {
			var out []series
			for _, mode := range []dist.Mode{dist.Global, dist.Local} {
				at := func(sev float64) cell { return p.faulted(mode, sev) }
				out = append(out, series{label: mode.String(), y: missed, cell: at},
					series{label: mode.String() + ",%msgs lost", y: lostPct, cell: at})
			}
			return out
		},
	},
	{
		Figure: Figure{Name: "sites-throughput", Title: "Committed throughput vs site count, by placement policy",
			XLabel: "sites", YLabel: "objects/sec"},
		kind: distRow, xs: siteCounts, series: byPolicy(throughput),
	},
	{
		Figure: Figure{Name: "sites-missed", Title: "Deadline-missing percentage vs site count, by placement policy",
			XLabel: "sites", YLabel: "% missed"},
		kind: distRow, xs: siteCounts, series: byPolicy(missed),
	},
	{
		// Each coordinated policy's cost relative to the uncoordinated
		// primary-only baseline at the same site count: latency tax =
		// avgResp(policy)/avgResp(primary), throughput tax =
		// throughput(primary)/throughput(policy). A tax of 1 means
		// coordination was free; the gap above 1 is the price of the
		// consistency guarantee the policy actually delivers.
		Figure: Figure{Name: "consistency-tax", Title: "Consistency tax vs the primary-only baseline",
			XLabel: "sites", YLabel: "coordinated/baseline ratio (1 = free)"},
		kind: distRow, xs: siteCounts,
		series: func(p *Params) []series {
			baseline := func(x float64) cell { return p.site(place.PrimaryOnly, int(x)) }
			var out []series
			for _, pol := range place.Policies() {
				if pol == place.PrimaryOnly {
					continue
				}
				coordinated := func(x float64) cell { return p.site(pol, int(x)) }
				out = append(out,
					series{label: pol.String() + "/latency", y: respMs, ratio: ratio, cell: coordinated, over: baseline},
					series{label: pol.String() + "/throughput", y: throughput, ratio: ratio, cell: baseline, over: coordinated})
			}
			return out
		},
	},
}
