package rtlock

// Benchmarks regenerating each of the paper's figures at reduced scale,
// reporting the headline metric of each as a custom benchmark metric so
// `go test -bench` doubles as a quick reproduction check, plus
// micro-benchmarks of the simulation substrate.

import (
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/experiments"
	"rtlock/internal/sim"
)

// benchParams is the reduced scale every figure benchmark runs at.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Single.Count = 150
	p.Single.Runs = 2
	p.Single.Sizes = []int{4, 12, 20}
	p.Dist.Count = 100
	p.Dist.Runs = 2
	p.Dist.Mixes = []float64{0, 0.5, 1}
	p.Dist.DelayUnits = []float64{0, 2, 8}
	p.Dist.Fig6Delays = []float64{2, 8}
	return p
}

// benchFigure regenerates the named row of the experiment table b.N
// times and returns the last figure for metric reporting.
func benchFigure(b *testing.B, name string) Figure {
	b.Helper()
	p := benchParams()
	var f Figure
	var err error
	for i := 0; i < b.N; i++ {
		if f, err = experiments.Run(name, p); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkFig2 regenerates the single-site throughput figure; the
// reported metrics are the size-20 normalized throughputs.
func BenchmarkFig2(b *testing.B) {
	f := benchFigure(b, "fig2")
	reportLast(b, f, "C", "thptC_objps")
	reportLast(b, f, "L", "thptL_objps")
}

// BenchmarkFig3 regenerates the single-site deadline-miss figure; the
// reported metrics are the size-20 miss percentages.
func BenchmarkFig3(b *testing.B) {
	f := benchFigure(b, "fig3")
	reportLast(b, f, "C", "missC_pct")
	reportLast(b, f, "L", "missL_pct")
}

// BenchmarkFig4 regenerates the distributed throughput-ratio figure; the
// reported metric is the ratio at the update-only mix and largest
// plotted delay.
func BenchmarkFig4(b *testing.B) {
	f := benchFigure(b, "fig4")
	lastSeries := f.Series[len(f.Series)-1]
	b.ReportMetric(lastSeries.Points[0].Y, "ratio_localOverGlobal")
}

// BenchmarkFig5 regenerates the deadline-missing-ratio figure; the
// reported metrics are the ratios at zero and maximum delay.
func BenchmarkFig5(b *testing.B) {
	s := benchFigure(b, "fig5").Series[0]
	b.ReportMetric(s.Points[0].Y, "ratio_delay0")
	b.ReportMetric(s.Points[len(s.Points)-1].Y, "ratio_delayMax")
}

// BenchmarkFig6 regenerates the distributed miss-percentage figure; the
// reported metrics compare the approaches at the 50/50 mix and larger
// delay.
func BenchmarkFig6(b *testing.B) {
	f := benchFigure(b, "fig6")
	if g, ok := f.SeriesByLabel("global,delay=8"); ok {
		b.ReportMetric(mid(g).Y, "missGlobal_pct")
	}
	if l, ok := f.SeriesByLabel("local,delay=8"); ok {
		b.ReportMetric(mid(l).Y, "missLocal_pct")
	}
}

// BenchmarkDBSizeAblation regenerates the omitted database-size sweep.
func BenchmarkDBSizeAblation(b *testing.B) {
	reportLast(b, benchFigure(b, "dbsize"), "L", "missL_largestDB_pct")
}

// BenchmarkSemanticsAblation regenerates the §5 read-vs-exclusive
// semantics comparison.
func BenchmarkSemanticsAblation(b *testing.B) {
	f := benchFigure(b, "semantics")
	reportLast(b, f, "C", "missC_pct")
	reportLast(b, f, "CX", "missCX_pct")
}

// BenchmarkInheritAblation regenerates the §3.1 inheritance comparison.
func BenchmarkInheritAblation(b *testing.B) {
	f := benchFigure(b, "inherit")
	reportLast(b, f, "C", "missC_pct")
	reportLast(b, f, "PI", "missPI_pct")
}

// BenchmarkRestartAblation regenerates the §5 blocking-vs-abort
// comparison.
func BenchmarkRestartAblation(b *testing.B) {
	f := benchFigure(b, "restart")
	reportLast(b, f, "C", "missC_pct")
	reportLast(b, f, "HP", "missHP_pct")
	reportLast(b, f, "TO", "missTO_pct")
}

// BenchmarkPriorityPolicyAblation regenerates the priority-assignment
// comparison.
func BenchmarkPriorityPolicyAblation(b *testing.B) {
	f := benchFigure(b, "priority")
	reportLast(b, f, "EDF", "missEDF_pct")
	reportLast(b, f, "RANDOM", "missRandom_pct")
}

// BenchmarkBufferAblation regenerates the page-buffer sweep.
func BenchmarkBufferAblation(b *testing.B) {
	reportLast(b, benchFigure(b, "buffer"), "C", "missC_largestBuf_pct")
}

// BenchmarkHotspotAblation regenerates the skewed-access sweep.
func BenchmarkHotspotAblation(b *testing.B) {
	f := benchFigure(b, "hotspot")
	reportLast(b, f, "C", "missC_maxSkew_pct")
	reportLast(b, f, "P", "missP_maxSkew_pct")
}

// BenchmarkPredictabilityAblation regenerates the response-tail
// comparison.
func BenchmarkPredictabilityAblation(b *testing.B) {
	f := benchFigure(b, "predictability")
	reportLast(b, f, "C", "tailC_p99p50")
	reportLast(b, f, "P", "tailP_p99p50")
}

// BenchmarkPeriodicAblation regenerates the periodic-mix sweep.
func BenchmarkPeriodicAblation(b *testing.B) {
	f := benchFigure(b, "periodic")
	reportLast(b, f, "C", "missC_allPeriodic_pct")
	reportLast(b, f, "L", "missL_allPeriodic_pct")
}

// BenchmarkOverheadAblation regenerates the lock-overhead sweep.
func BenchmarkOverheadAblation(b *testing.B) {
	reportLast(b, benchFigure(b, "overhead"), "C", "missC_maxOverhead_pct")
}

// BenchmarkRecoveryAblation regenerates the checkpoint-interval
// trade-off.
func BenchmarkRecoveryAblation(b *testing.B) {
	reportLast(b, benchFigure(b, "recovery"), "recovery_ms", "restartNoCkpt_ms")
}

// BenchmarkConsistencyAblation regenerates the temporal-consistency
// comparison.
func BenchmarkConsistencyAblation(b *testing.B) {
	f := benchFigure(b, "consistency")
	reportLast(b, f, "latest", "inconsistentLatest_pct")
	reportLast(b, f, "snapshot", "inconsistentSnapshot_pct")
}

// BenchmarkPlacementAblation regenerates the GCM-placement comparison.
func BenchmarkPlacementAblation(b *testing.B) {
	f := benchFigure(b, "placement")
	reportLast(b, f, "hub", "missHub_pct")
	reportLast(b, f, "leaf", "missLeaf_pct")
}

func reportLast(b *testing.B, f Figure, label, metric string) {
	b.Helper()
	if s, ok := f.SeriesByLabel(label); ok && len(s.Points) > 0 {
		b.ReportMetric(s.Points[len(s.Points)-1].Y, metric)
	}
}

func mid(s experiments.Series) experiments.Point { return s.Points[len(s.Points)/2] }

// BenchmarkKernelEvents measures raw event dispatch throughput of the
// simulation kernel.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	b.ResetTimer()
	k.After(1, tick)
	k.Run()
}

// BenchmarkProcessSwitch measures the park/resume cycle of one process
// sleeping repeatedly. The process pops its own wake-ups, so this is the
// self-resume cost (no goroutine switch), not a hand-off.
func BenchmarkProcessSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := p.Sleep(1); err != nil {
				return
			}
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkCPUPreemption measures the preemptive CPU resource under
// alternating-priority load.
func BenchmarkCPUPreemption(b *testing.B) {
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, sim.PreemptivePriority)
	k.Spawn("low", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := cpu.Use(p, sim.Priority{Deadline: 100, TxID: 1}, 10); err != nil {
				return
			}
		}
	})
	k.Spawn("high", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := cpu.Use(p, sim.Priority{Deadline: 1, TxID: 2}, 5); err != nil {
				return
			}
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkCeilingAcquireRelease measures the ceiling manager's lock
// path without contention.
func BenchmarkCeilingAcquireRelease(b *testing.B) {
	k := sim.NewKernel()
	m := core.NewCeiling(k)
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			st := core.NewTxState(int64(i), sim.Priority{Deadline: int64(i), TxID: int64(i)}, p)
			st.WriteSet = []core.ObjectID{1, 2, 3}
			m.Register(st)
			for _, obj := range st.WriteSet {
				if err := m.Acquire(p, st, obj, core.Write); err != nil {
					return
				}
			}
			m.ReleaseAll(st)
			m.Unregister(st)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkTwoPLAcquireRelease measures the 2PL lock path without
// contention.
func BenchmarkTwoPLAcquireRelease(b *testing.B) {
	k := sim.NewKernel()
	m := core.NewTwoPLPriority(k)
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			st := core.NewTxState(int64(i), sim.Priority{Deadline: int64(i), TxID: int64(i)}, p)
			m.Register(st)
			for _, obj := range []core.ObjectID{1, 2, 3} {
				if err := m.Acquire(p, st, obj, core.Write); err != nil {
					return
				}
			}
			m.ReleaseAll(st)
			m.Unregister(st)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSingleSiteRun measures an end-to-end single-site simulation
// per iteration (one full workload under the ceiling protocol).
func BenchmarkSingleSiteRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunSingleSite(SingleSiteConfig{
			Workload: WorkloadConfig{Count: 200, MeanSize: 10, Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkDistributedRun measures an end-to-end distributed local-
// ceiling simulation per iteration.
func BenchmarkDistributedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunDistributed(DistributedConfig{
			Workload: WorkloadConfig{Count: 150, MeanSize: 6, Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkJournaledRun measures the same single-site simulation with
// the replay journal recording every kernel-level event — the delta
// against BenchmarkSingleSiteRun is the journaling overhead.
func BenchmarkJournaledRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunSingleSite(SingleSiteConfig{
			Journal:  true,
			Workload: WorkloadConfig{Count: 200, MeanSize: 10, Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkAuditReplay measures replaying one recorded journal through
// the full single-site auditor set.
func BenchmarkAuditReplay(b *testing.B) {
	res, err := RunSingleSite(SingleSiteConfig{
		Journal:  true,
		Workload: WorkloadConfig{Count: 200, MeanSize: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Auditors are stateful; each replay needs a fresh set.
		auds, err := AuditorsForProtocol(Ceiling)
		if err != nil {
			b.Fatal(err)
		}
		if vs := AuditJournal(res.Journal, auds...); len(vs) > 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}
