package main

import "encoding/json"

// The metric catalog: every name the benchmark emits, with its unit,
// direction, regression bound (end-to-end) and the end-to-end metrics it
// is expected to move (per-layer). BENCHMARK.json lists the same names;
// bench_test.go keeps the two in step.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves lists "metric@workload" pairs this layer metric is expected
	// to move; empty for diagnostics.
	Moves []string
}

// The six workloads, in run order. Later issues refer to these names.
const (
	wSinglePlain   = "single-plain"
	wSingleRestart = "single-restart"
	wSingleAudit   = "single-audit"
	wDistModes     = "dist-modes"
	wStream        = "stream"
	wExplore       = "explore"
)

// distModes are the five execution paths of internal/dist, in the order
// dist-modes runs them.
var distModes = []string{"local", "global", "shard", "quorum", "primary"}

// endToEnd is what a user of the simulator sees: host cost per simulated
// transaction (per explored schedule on the explore workload). The bounds
// come from the spread ten runs at ten seeds show on a shared 2-core box
// (README.md, "Noise"): timings swing 3-5% between identical runs and
// over 10% when a neighbour is busy; the counts follow the seed (HP
// restarts, explorer trees, journal growth steps) by up to 2%.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.06},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func at(metric string, workloads ...string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w
	}
	return out
}

func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Where each layer's cost shows. The hand-off shares are from the sizing
// runs: a 679 ns switch against ~24 us/tx makes hand-offs most of
// single-plain, about half as much of single-audit, a quarter of stream.
var (
	simTime = join(
		at("ops_per_s", wSinglePlain, wSingleRestart, wDistModes, wSingleAudit, wStream),
		at("cpu_us_per_op", wSinglePlain, wSingleRestart, wDistModes))
	simAllocs     = at("allocs_per_op", wSinglePlain, wSingleRestart)
	ceilingTime   = at("ops_per_s", wSinglePlain)
	hpTime        = at("ops_per_s", wSingleRestart)
	coreAllocs    = at("allocs_per_op", wSinglePlain, wSingleRestart)
	journalMoves  = join(at("ops_per_s", wSingleAudit), at("alloc_bytes_per_op", wSingleAudit), at("live_heap_mb", wSingleAudit))
	distMoves     = join(at("ops_per_s", wDistModes), at("allocs_per_op", wDistModes))
	streamGen     = at("ops_per_s", wStream)
	telemetry     = join(at("alloc_bytes_per_op", wStream), at("live_heap_mb", wStream))
	exploreMoves  = join(at("ops_per_s", wExplore), at("cpu_us_per_op", wExplore))
	singleSiteOps = at("ops_per_s", wSinglePlain, wSingleRestart, wSingleAudit, wStream)
)

// perLayer is every layer metric, prefixed with the module it measures.
// Unit costs come from the micro-probes in probes.go and read the same
// on every workload; work counts, trace shares and the dist per-mode
// lines come from the traced rep of the workload being run and are 0
// where that workload does not exercise the layer.
var perLayer = func() []metricDef {
	ns := func(name string, moves []string) metricDef {
		return metricDef{Name: name, Unit: "ns", Better: "lower", Moves: moves}
	}
	count := func(name string, moves []string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: "lower", Moves: moves}
	}
	defs := []metricDef{
		// internal/sim unit costs.
		ns("sim.event_ns", simTime),
		count("sim.event_allocs", simAllocs),
		ns("sim.switch_ns", simTime),
		ns("sim.switch_ns_p1", simTime),
		count("sim.switch_allocs", simAllocs),
		ns("sim.spawn_ns", simTime),
		count("sim.spawn_allocs", simAllocs),
		ns("sim.park_wake_ns", simTime),
		ns("sim.preempt_ns", simTime),
		count("sim.preempt_allocs", simAllocs),
		{Name: "sim.switch_over_event", Unit: "ratio", Better: "lower", Moves: simTime},
		// internal/core unit costs, TxState reused across iterations.
		ns("core.ceiling_acqrel_ns", ceilingTime),
		count("core.ceiling_acqrel_allocs", coreAllocs),
		ns("core.twopl_acqrel_ns", hpTime),
		count("core.twopl_acqrel_allocs", coreAllocs),
		ns("core.hp_acqrel_ns", hpTime),
		ns("core.hp_wound_ns", hpTime),
		count("core.txstate_new_allocs", coreAllocs),
		// internal/journal and internal/audit.
		ns("journal.append_ns", journalMoves),
		count("journal.append_allocs", journalMoves),
		ns("journal.hash_ns_per_rec", journalMoves),
		{Name: "journal.bytes_per_rec", Unit: "B", Better: "lower", Moves: journalMoves},
		ns("audit.single_ns_per_rec", journalMoves),
		ns("audit.dist_ns_per_rec", journalMoves),
		// internal/netsim and internal/place.
		ns("netsim.send_ns", distMoves),
		count("netsim.send_allocs", distMoves),
		ns("netsim.hop_ns", distMoves),
		ns("place.lookup_ns", distMoves),
		// internal/workload.
		ns("workload.gen_ns_per_tx.db200", at("ops_per_s", wSinglePlain)),
		ns("workload.gen_ns_per_tx.db10000", streamGen),
		count("workload.gen_allocs_per_tx", at("allocs_per_op", wStream)),
		// Telemetry: too cheap to see in wall time.
		ns("stats.add_ns", telemetry),
		ns("stats.sketch_observe_ns", telemetry),
		ns("metrics.histogram_observe_ns", telemetry),
		ns("timeline.tx_ns", telemetry),
		// internal/explore.
		{Name: "explore.schedules_per_s.w1", Unit: "1/s", Better: "higher", Moves: exploreMoves},
		{Name: "explore.schedules_per_s.w2", Unit: "1/s", Better: "higher", Moves: exploreMoves},
		{Name: "explore.parallel_eff", Unit: "ratio", Better: "higher", Moves: exploreMoves},
		{Name: "explore.distinct_per_cpu_s", Unit: "1/s", Better: "higher", Moves: exploreMoves},
		// Work counts per processed transaction, from the registry
		// attached on the traced rep: exact and repeatable.
		count("sim.events_per_tx", singleSiteOps),
		count("sim.spawns_per_tx", singleSiteOps),
		count("sim.cpu_dispatches_per_tx", singleSiteOps),
		count("sim.switches_per_tx", singleSiteOps),
		count("core.lock_requests_per_tx", singleSiteOps),
		count("core.lock_blocks_per_tx", singleSiteOps),
		count("txn.restarts_per_tx", at("ops_per_s", wSingleRestart)),
		count("journal.records_per_tx", journalMoves),
		count("audit.findings", nil),
	}
	for _, m := range distModes {
		defs = append(defs,
			metricDef{Name: "dist.us_per_tx." + m, Unit: "us", Better: "lower", Moves: distMoves},
			metricDef{Name: "dist.commit_share." + m, Unit: "ratio", Better: "higher"},
			count("netsim.msgs_per_tx."+m, distMoves))
	}
	defs = append(defs,
		count("dist.twopc_rounds_per_tx.shard", distMoves),
		count("dist.quorum_rounds_per_tx.quorum", distMoves),
		// Where the traced rep's host time went (self time of the spans
		// bench/ puts around its calls into the program), and how much
		// of a transaction's cost the unit costs above account for.
		metricDef{Name: "trace.gen_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.run_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.hash_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.audit_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "model.explained_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "proc.rep_spread_pct", Unit: "%", Better: "lower"},
	)
	return defs
}()

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// manifest renders BENCHMARK.json from the catalog.
func manifest() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.name, w.why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		m.EndToEnd = append(m.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(data, '\n')
}
