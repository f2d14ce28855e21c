package main

// The two run shapes of one workload: the untraced run that yields the
// end-to-end metrics, and the traced run that yields the per-layer ones.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rtlock/internal/metrics"
)

// processStart approximates process start: setup_s counts from here.
var processStart = time.Now()

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minReps   = 5 // timed reps per run, at least
)

// stat is one reported metric with the spread of the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func statOf(unit string, xs []float64) stat {
	s := stat{Value: median(xs), Unit: unit, Min: math.Inf(1), Max: math.Inf(-1), N: len(xs)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// result is one run of one workload, written whole to the detail file;
// the last line of standard output carries its contract subset.
type result struct {
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Trace       int             `json:"trace"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Correct     bool            `json:"correct"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	FailedShare float64         `json:"failed_share"`
	Metrics     map[string]stat `json:"metrics"`
	Fingerprint string          `json:"fingerprint"`
	// Failures count into failed; Findings are auditor violations,
	// listed as the baseline for ROADMAP item 4 and never fatal.
	Failures []string `json:"failures"`
	Findings []string `json:"findings"`
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) finish() {
	r.Failed = len(r.Failures)
	r.Correct = r.Failed == 0
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed+len(r.Findings)) / float64(r.Attempted)
	}
}

// rep is every part of a workload run once.
type rep struct {
	ops      int
	fp       string
	findings []string
	failures []string
	parts    []partOut
	walls    []time.Duration // per part
}

func (r *rep) add(o partOut, wall time.Duration) {
	r.ops += o.ops
	r.fp = strings.TrimSpace(r.fp + " " + o.fp)
	r.findings = append(r.findings, o.findings...)
	r.failures = append(r.failures, o.failures...)
	r.parts = append(r.parts, o)
	r.walls = append(r.walls, wall)
}

func runFacade(parts []part) (*rep, error) {
	r := &rep{}
	for _, p := range parts {
		t0 := time.Now()
		o, err := p.facade()
		if err != nil {
			return nil, fmt.Errorf("part %q: %w", p.label, err)
		}
		r.add(o, time.Since(t0))
	}
	return r, nil
}

func runPhased(parts []part, tr *tracer) (*rep, error) {
	r := &rep{}
	root := tr.begin("rep", -1)
	for _, p := range parts {
		t0 := time.Now()
		id := tr.begin("part", root)
		o, err := p.phased(tr, id)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("part %q (phased): %w", p.label, err)
		}
		r.add(o, time.Since(t0))
	}
	tr.end(root)
	return r, nil
}

// rusage reads the process's CPU time (user + system) and peak resident
// set; zeros when the platform refuses, which only blanks two columns.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func spreadPct(xs []float64) float64 {
	s := statOf("", xs)
	if s.Value == 0 {
		return 0
	}
	return 100 * (s.Max - s.Min) / s.Value
}

// runEndToEnd sets the workload up setupReps times (inputs from the seed
// plus one discarded rep, which lets the heap reach steady size), then
// runs closed-loop timed reps for the given time.
func runEndToEnd(w workloadDef, seed int64, seconds, scale float64) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: map[string]stat{}}
	var parts []part
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		parts = w.parts(seed, scale)
		r, err := runFacade(parts)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			res.Fingerprint = r.fp
		} else if r.fp != res.Fingerprint {
			res.fail("set-up rep %d fingerprint differs: %s", i, r.fp)
		}
	}

	var opsPerS, cpuUS, allocs, bytes, walls []float64
	var last *rep
	var m0, m1 runtime.MemStats
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		last = nil
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c0, _ := rusage()
		t0 := time.Now()
		r, err := runFacade(parts)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		c1, _ := rusage()
		cpu := c1 - c0
		runtime.ReadMemStats(&m1)
		ops := float64(r.ops)
		opsPerS = append(opsPerS, ops/wall.Seconds())
		cpuUS = append(cpuUS, float64(cpu.Microseconds())/ops)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/ops)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
		walls = append(walls, wall.Seconds())
		res.Attempted += r.ops
		if r.fp != res.Fingerprint {
			res.fail("rep %d fingerprint differs: %s", n+1, r.fp)
		}
		last = r
	}
	// The last rep's failures and findings stand for all: every rep that
	// matched its fingerprint ran the same simulation.
	res.Failures = append(res.Failures, last.failures...)
	res.Findings = last.findings

	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pools kept through the first
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(last)
	res.Metrics["ops_per_s"] = statOf("op/s", opsPerS)
	res.Metrics["cpu_us_per_op"] = statOf("us", cpuUS)
	res.Metrics["allocs_per_op"] = statOf("count", allocs)
	res.Metrics["alloc_bytes_per_op"] = statOf("B", bytes)
	res.Metrics["live_heap_mb"] = statOf("MB", []float64{float64(m1.HeapAlloc) / (1 << 20)})
	res.Metrics["setup_s"] = statOf("s", setups)
	// Diagnostics in the detail file only: not gated.
	res.Metrics["proc.rep_spread_pct"] = statOf("%", []float64{spreadPct(walls)})
	_, rss := rusage()
	res.Metrics["proc.peak_rss_mb"] = statOf("MB", []float64{rss})
	res.finish()
	return res, nil
}

// counterSum adds one counter series over the registries of a rep's parts.
func counterSum(r *rep, name string, labels ...metrics.Label) float64 {
	var sum int64
	for _, p := range r.parts {
		sum += p.reg.Counter(name, "", labels...).Value()
	}
	return float64(sum)
}

// counts are a traced rep's work counts per processed transaction.
type counts struct {
	events, spawns, preempts, requests float64
	// waits is how often a process was switched back in after waiting:
	// once per I/O service, completed CPU use and lock block.
	waits float64
}

// workCounts reads the work counts off the registries of the traced rep
// and files them under their per-layer names.
func workCounts(traced *rep, v map[string]float64) counts {
	tx := float64(traced.ops)
	perTx := func(name string, labels ...metrics.Label) float64 { return counterSum(traced, name, labels...) / tx }
	dispatches := perTx("cpu_dispatches_total")
	blocks := perTx("lock_blocks_total", metrics.L("kind", "ceiling")) + perTx("lock_blocks_total", metrics.L("kind", "conflict"))
	c := counts{
		events:   perTx("sim_events_total"),
		spawns:   perTx("sim_procs_spawned_total"),
		preempts: perTx("cpu_preemptions_total"),
		requests: perTx("lock_requests_total"),
	}
	c.waits = perTx("io_jobs_total") + dispatches - c.preempts + blocks
	records := 0
	for _, p := range traced.parts {
		records += p.records
	}
	v["sim.events_per_tx"] = c.events
	v["sim.spawns_per_tx"] = c.spawns
	v["sim.cpu_dispatches_per_tx"] = dispatches
	v["sim.switches_per_tx"] = c.spawns + c.waits
	v["core.lock_requests_per_tx"] = c.requests
	v["core.lock_blocks_per_tx"] = blocks
	v["txn.restarts_per_tx"] = perTx("txn_restarts_total")
	v["journal.records_per_tx"] = float64(records) / tx
	v["audit.findings"] = float64(len(traced.findings))
	return c
}

// distLines files the per-mode lines of dist-modes: host time from the
// untraced reps, the rest from the traced one.
func distLines(parts []part, traced *rep, partWalls [][]float64, v map[string]float64) {
	for i, p := range traced.parts {
		m, n := parts[i].label, float64(p.ops)
		v["dist.us_per_tx."+m] = 1e6 * median(partWalls[i]) / n
		v["dist.commit_share."+m] = float64(p.committed) / n
		v["netsim.msgs_per_tx."+m] = float64(p.messages) / n
		switch m {
		case "shard":
			v["dist.twopc_rounds_per_tx.shard"] = float64(p.reg.Histogram("twopc_roundtrip_ticks", "", nil).Count()) / n
		case "quorum":
			rounds := p.reg.Counter("dist_quorum_rounds_total", "", metrics.L("kind", "read")).Value() +
				p.reg.Counter("dist_quorum_rounds_total", "", metrics.L("kind", "write")).Value()
			v["dist.quorum_rounds_per_tx.quorum"] = float64(rounds) / n
		}
	}
}

// model says which unit costs stand for a single-site workload's lock
// manager and generator in model.explained_share, and whether the journal
// and timeline are on in its untraced reps.
var model = map[string]struct {
	lockNS, genNS     string
	journal, timeline bool
}{
	wSinglePlain:   {"core.ceiling_acqrel_ns", "workload.gen_ns_per_tx.db200", false, false},
	wSingleRestart: {"core.hp_acqrel_ns", "workload.gen_ns_per_tx.db200", false, false},
	wSingleAudit:   {"core.ceiling_acqrel_ns", "workload.gen_ns_per_tx.db200", true, false},
	wStream:        {"core.ceiling_acqrel_ns", "workload.gen_ns_per_tx.db10000", false, true},
}

// explainedNS is the host time per transaction that work counts times
// unit costs account for (formula in README.md); single-site workloads
// only.
func explainedNS(workload string, c counts, v map[string]float64) (float64, bool) {
	m, ok := model[workload]
	if !ok {
		return 0, false
	}
	ns := c.spawns*v["sim.spawn_ns"] + c.waits*v["sim.switch_ns"] +
		math.Max(0, c.events-c.spawns-2*c.waits)*v["sim.event_ns"] +
		c.preempts*math.Max(0, v["sim.preempt_ns"]-2*v["sim.switch_ns"]) +
		c.requests*v[m.lockNS] + v[m.genNS] + v["stats.add_ns"]
	if m.journal {
		ns += v["journal.records_per_tx"] * (v["journal.append_ns"] + v["journal.hash_ns_per_rec"] + v["audit.single_ns_per_rec"])
	}
	if m.timeline {
		ns += v["timeline.tx_ns"]
	}
	return ns, true
}

// runLayers warms up, times a few untraced reps as the overhead baseline,
// runs one rep through the phased path under spans with journal and
// registry on, then runs the unit-cost probes. About half of the time
// goes to each.
func runLayers(w workloadDef, seed int64, seconds, scale float64, outDir string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Trace: 1, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: map[string]stat{}}
	parts := w.parts(seed, scale)
	warm, err := runFacade(parts)
	if err != nil {
		return nil, err
	}
	res.Fingerprint = warm.fp

	var walls []float64
	partWalls := make([][]float64, len(parts))
	start := time.Now()
	for n := 0; n < 3 || time.Since(start).Seconds() < seconds*0.35; n++ {
		runtime.GC()
		t0 := time.Now()
		r, err := runFacade(parts)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		for i, d := range r.walls {
			partWalls[i] = append(partWalls[i], d.Seconds())
		}
		res.Attempted += r.ops
		if r.fp != res.Fingerprint {
			res.fail("rep %d fingerprint differs: %s", n+1, r.fp)
		}
	}

	runtime.GC()
	tr := newTracer(w.name, len(walls)+1)
	t0 := time.Now()
	traced, err := runPhased(parts, tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0).Seconds()
	res.Attempted += traced.ops
	if traced.fp != res.Fingerprint {
		res.fail("phased path fingerprint differs from the facade path: %s", traced.fp)
	}
	res.Failures = append(res.Failures, traced.failures...)
	res.Findings = traced.findings
	var hashes []string
	for _, p := range traced.parts {
		if p.jhash != "" {
			hashes = append(hashes, p.jhash[:16])
		}
	}
	if len(hashes) > 0 {
		res.Fingerprint += " journal=" + strings.Join(hashes, ",")
	}
	if err := tr.write(outDir); err != nil {
		return nil, err
	}

	v, err := runProbes(time.Duration(seconds * 0.5 * float64(time.Second)))
	if err != nil {
		return nil, err
	}

	c := workCounts(traced, v)
	if w.name == wDistModes {
		distLines(parts, traced, partWalls, v)
	}

	// Self time of the spans as shares of the traced rep.
	self := tr.selfTimes()
	total := time.Duration(tr.spans[0].End - tr.spans[0].Start).Seconds()
	for _, phase := range []string{"gen", "run", "hash", "audit"} {
		v["trace."+phase+"_share"] = self[phase].Seconds() / total
	}
	untraced := median(walls)
	v["trace.overhead_pct"] = 100 * (tracedWall/untraced - 1)
	v["proc.rep_spread_pct"] = spreadPct(walls)
	_, v["proc.peak_rss_mb"] = rusage()

	if ns, ok := explainedNS(w.name, c, v); ok {
		v["model.explained_share"] = ns / (1e9 * untraced / float64(warm.ops))
	}

	for _, d := range perLayer {
		res.Metrics[d.Name] = stat{Value: v[d.Name], Unit: d.Unit, Min: v[d.Name], Max: v[d.Name], N: 1}
	}
	res.finish()
	return res, nil
}
