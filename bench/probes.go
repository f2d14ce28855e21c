package main

// Unit-cost micro-probes: each layer's public functions timed from
// outside, in fixed-iteration loops. A probe reports the median ns/op of
// its loops and the allocations per op of the last one.

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"rtlock"
	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/netsim"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
)

const probeLoops = 5

// timeOps sizes n so that one loop of fn(n) lasts about budget/probeLoops,
// then times probeLoops loops.
func timeOps(budget time.Duration, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	per := budget / probeLoops
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= min(per, time.Millisecond) || n >= 1<<26 {
			if d < per {
				n = int(float64(n) * float64(per) / float64(d))
			}
			break
		}
		n *= 8
	}
	ns := make([]float64, probeLoops)
	var m0, m1 runtime.MemStats
	for i := range ns {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		ns[i] = float64(time.Since(t0)) / float64(n)
		runtime.ReadMemStats(&m1)
	}
	return median(ns), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// sink keeps probe results reachable so the compiler cannot drop the
// calls that produce them.
var sink any

// eventChain runs n timer events, each calling step, through a fresh
// kernel.
func eventChain(k *sim.Kernel, n int, step func()) {
	i := 0
	var tick func()
	tick = func() {
		step()
		if i++; i < n {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Run()
}

func probeEvent(n int) { eventChain(sim.NewKernel(), n, func() {}) }

// probeSwitch is the coroutine handshake: one process sleeping n times.
func probeSwitch(n int) {
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if p.Sleep(1) != nil {
				return
			}
		}
	})
	k.Run()
}

// probeSpawn starts n empty-bodied processes, one per timer event.
func probeSpawn(n int) {
	k := sim.NewKernel()
	body := func(*sim.Proc) {}
	eventChain(k, n, func() { k.Spawn("p", body) })
}

// probeParkWake bounces control between two processes n times through
// explicit Park/Wake pairs: 2n hand-offs with no timer behind them.
func probeParkWake(n int) {
	k := sim.NewKernel()
	var ta, tb sim.Token
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			tb.Wake(nil)
			if p.Park(&ta) != nil {
				return
			}
			ta.Reset()
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if p.Park(&tb) != nil {
				return
			}
			tb.Reset()
			ta.Wake(nil)
		}
	})
	k.Run()
}

// probePreempt alternates a low- and a high-priority CPU user, so every
// iteration preempts once (the shape of BenchmarkCPUPreemption).
func probePreempt(n int) {
	k := sim.NewKernel()
	cpu := sim.NewCPU(k, sim.PreemptivePriority)
	user := func(prio sim.Priority, d sim.Duration) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if cpu.Use(p, prio, d) != nil {
					return
				}
			}
		}
	}
	k.Spawn("low", user(sim.Priority{Deadline: 100, TxID: 1}, 10))
	k.Spawn("high", user(sim.Priority{Deadline: 1, TxID: 2}, 5))
	k.Run()
}

var lockSet = []core.ObjectID{1, 2, 3}

// probeLocks registers, write-locks lockSet, releases and unregisters n
// times without contention, reusing one TxState as the transaction layer
// does. Building a TxState per iteration, as the go test micro-benchmarks
// do, is what shows as 4-5 allocs on the zero-alloc lock path.
func probeLocks(mk func(*sim.Kernel) core.Manager) func(n int) {
	return func(n int) {
		k := sim.NewKernel()
		m := mk(k)
		k.Spawn("p", func(p *sim.Proc) {
			st := core.NewTxState(0, sim.Priority{}, p)
			for i := 0; i < n; i++ {
				st.ResetFor(int64(i), sim.Priority{Deadline: int64(i), TxID: int64(i)}, p)
				st.WriteSet = lockSet
				m.Register(st)
				for _, obj := range lockSet {
					if m.Acquire(p, st, obj, core.Write) != nil {
						return
					}
				}
				m.ReleaseAll(st)
				m.Unregister(st)
			}
		})
		k.Run()
	}
}

func probeTxStateNew(n int) {
	for i := 0; i < n; i++ {
		st := core.NewTxState(int64(i), sim.Priority{Deadline: int64(i), TxID: int64(i)}, nil)
		st.WriteSet = []core.ObjectID{1, 2, 3}
		sink = st
	}
}

// probeWound runs n High-Priority wound cycles: a low-priority holder is
// aborted by a high-priority requester, releases, and re-acquires once
// the requester is done.
func probeWound(n int) {
	k := sim.NewKernel()
	m := core.NewTwoPLHP(k)
	done := false
	k.Spawn("low", func(p *sim.Proc) {
		st := core.NewTxState(0, sim.Priority{}, p)
		for attempt := int64(0); !done; attempt++ {
			st.ResetFor(1, sim.Priority{Deadline: 1000, TxID: 1}, p)
			if m.Acquire(p, st, 1, core.Write) == nil {
				p.Sleep(10) // the wound interrupts this
			}
			m.ReleaseAll(st)
		}
	})
	k.Spawn("high", func(p *sim.Proc) {
		st := core.NewTxState(2, sim.Priority{Deadline: 1, TxID: 2}, p)
		for i := 0; i < n; i++ {
			if m.Acquire(p, st, 1, core.Write) != nil {
				break
			}
			m.ReleaseAll(st)
			if p.Sleep(2) != nil {
				break
			}
		}
		done = true
	})
	k.Run()
}

func probeJournalAppend(n int) {
	var j *journal.Journal
	for i := 0; i < n; i++ {
		if i&(1<<16-1) == 0 {
			j = journal.New(1, "probe") // a run's journal grows from empty
		}
		j.Append(int64(i), journal.KSpawn, 0, int64(i), 0, 0, 0, "")
	}
	sink = j
}

// probeNet builds a two-site network with a handler at site 1.
func probeNet() (*sim.Kernel, *netsim.Network) {
	k := sim.NewKernel()
	net := netsim.NewNetwork(k, sim.Millisecond)
	net.Server(1).Handle("p", func(netsim.Message) {})
	return k, net
}

// probeSend posts n messages, each delivered through site 1's server.
func probeSend(n int) {
	k, net := probeNet()
	eventChain(k, n, func() { net.Send(0, 1, "p", nil) })
	_ = k.Shutdown() // stops the parked message server; nothing to report in a probe
}

func probeHop(n int) {
	k, net := probeNet()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if net.Hop(p, 0, 1) != nil {
				return
			}
		}
	})
	k.Run()
	_ = k.Shutdown() // as in probeSend
}

func probeGenerate(dbSize int) func(n int) {
	return func(n int) {
		txs, err := generateSingle(rtlock.SingleSiteConfig{DBSize: dbSize, CPUPerObj: paperCPUPerObj, IOPerObj: paperIOPerObj,
			Workload: rtlock.WorkloadConfig{Seed: 1, Count: n, MeanInterarrival: 450 * rtlock.Millisecond,
				MeanSize: 10, SlackMin: slackMin, SlackMax: slackMax}})
		if err != nil {
			panic(err) // fixed valid parameters: only a bug gets here
		}
		sink = txs
	}
}

func probeStatsAdd(n int) {
	m := stats.NewMonitor()
	m.SetMaxRaw(4096)
	for i := 0; i < n; i++ {
		t := sim.Time(i)
		m.Add(stats.TxRecord{ID: int64(i), Size: 10, Arrival: t, Start: t, Finish: t + 500, Deadline: t + 1000,
			Outcome: stats.Committed})
	}
}

func probeSketch(n int) {
	s := stats.NewSketch(sim.Millisecond, 8192)
	for i := 0; i < n; i++ {
		s.Observe(sim.Duration(i&0xffff) * 100)
	}
}

func probeHistogram(n int) {
	h := metrics.New().Histogram("probe", "", nil)
	for i := 0; i < n; i++ {
		h.Observe(int64(i&0xffff) * 100)
	}
}

func probeTimeline(n int) {
	c := timeline.New(timeline.Config{Window: 10 * sim.Second}, metrics.New())
	for i := 0; i < n; i++ {
		c.Tx(sim.Time(i)*sim.Time(6*sim.Millisecond), true, 20*sim.Millisecond, 0)
	}
}

func probePlace(n int) {
	pm, err := place.NewQuorum(4, paperDBSize, place.RangePartition, 3, 2, 2)
	if err != nil {
		panic(err) // fixed valid parameters
	}
	s := 0
	for i := 0; i < n; i++ {
		obj := i % paperDBSize
		s += pm.Primary(obj) + len(pm.Replicas(obj))
	}
	sink = s
}

// probeExplore times DFS over the single-site HP target.
func probeExplore(workers, schedules int) (perSec, distinctPerCPUs float64, err error) {
	c0, _ := rusage()
	t0 := time.Now()
	rep, err := rtlock.Explore(rtlock.ExploreConfig{Protocol: rtlock.TwoPLHighPriority,
		Options: rtlock.ExploreOptions{Strategy: rtlock.ExploreDFS, Schedules: schedules, MaxDepth: 24, Branch: 3, Workers: workers}})
	if err != nil {
		return 0, 0, err
	}
	wall := time.Since(t0)
	c1, _ := rusage()
	return float64(rep.Explored) / wall.Seconds(), float64(rep.Distinct) / (c1 - c0).Seconds(), nil
}

// runProbes measures every unit cost within about budget and returns
// them by per-layer metric name.
func runProbes(budget time.Duration) (map[string]float64, error) {
	v := make(map[string]float64)
	const slots = 26 // timed probes, the explorer's counting two each
	per := budget / slots
	cost := func(fn func(n int)) (ns, allocs float64) { return timeOps(per, fn) }

	v["sim.event_ns"], v["sim.event_allocs"] = cost(probeEvent)
	v["sim.switch_ns"], v["sim.switch_allocs"] = cost(probeSwitch)
	prev := runtime.GOMAXPROCS(1)
	v["sim.switch_ns_p1"], _ = cost(probeSwitch)
	runtime.GOMAXPROCS(prev)
	v["sim.spawn_ns"], v["sim.spawn_allocs"] = cost(probeSpawn)
	roundTrip, _ := cost(probeParkWake)
	v["sim.park_wake_ns"] = roundTrip / 2
	v["sim.preempt_ns"], v["sim.preempt_allocs"] = cost(probePreempt)
	v["sim.switch_over_event"] = v["sim.switch_ns"] / v["sim.event_ns"]

	// Lock costs are per lock acquired and released.
	perLock := func(mk func(*sim.Kernel) core.Manager) (ns, allocs float64) {
		ns, allocs = cost(probeLocks(mk))
		return ns / float64(len(lockSet)), allocs / float64(len(lockSet))
	}
	v["core.ceiling_acqrel_ns"], v["core.ceiling_acqrel_allocs"] = perLock(func(k *sim.Kernel) core.Manager { return core.NewCeiling(k) })
	v["core.twopl_acqrel_ns"], v["core.twopl_acqrel_allocs"] = perLock(func(k *sim.Kernel) core.Manager { return core.NewTwoPLPriority(k) })
	v["core.hp_acqrel_ns"], _ = perLock(func(k *sim.Kernel) core.Manager { return core.NewTwoPLHP(k) })
	v["core.hp_wound_ns"], _ = cost(probeWound)
	_, v["core.txstate_new_allocs"] = cost(probeTxStateNew)

	v["journal.append_ns"], v["journal.append_allocs"] = cost(probeJournalAppend)
	single, err := rtlock.RunSingleSite(rtlock.SingleSiteConfig{Journal: true, Workload: rtlock.WorkloadConfig{Count: 1000}})
	if err != nil {
		return nil, fmt.Errorf("probe journal: %w", err)
	}
	dist, err := rtlock.RunDistributed(rtlock.DistributedConfig{Journal: true, CommDelay: 2 * rtlock.Millisecond,
		Workload: rtlock.WorkloadConfig{Count: 500, MeanInterarrival: 120 * rtlock.Millisecond}})
	if err != nil {
		return nil, fmt.Errorf("probe journal: %w", err)
	}
	perRecord := func(j *rtlock.Journal, pass func()) float64 {
		ns, _ := cost(func(n int) {
			for i := 0; i < n; i++ {
				pass()
			}
		})
		return ns / float64(j.Len())
	}
	v["journal.hash_ns_per_rec"] = perRecord(single.Journal, func() { sink = single.Journal.Hash() })
	var encoded bytes.Buffer
	if err := single.Journal.EncodeBinary(&encoded); err != nil {
		return nil, fmt.Errorf("probe journal: %w", err)
	}
	v["journal.bytes_per_rec"] = float64(encoded.Len()) / float64(single.Journal.Len())
	// Auditors are stateful: every replay needs a fresh set.
	v["audit.single_ns_per_rec"] = perRecord(single.Journal, func() {
		auds, _ := rtlock.AuditorsForProtocol(rtlock.Ceiling) // known protocol
		sink = rtlock.AuditJournal(single.Journal, auds...)
	})
	v["audit.dist_ns_per_rec"] = perRecord(dist.Journal, func() {
		sink = rtlock.AuditJournal(dist.Journal, rtlock.AuditorsForDistributed(false)...)
	})

	v["netsim.send_ns"], v["netsim.send_allocs"] = cost(probeSend)
	v["netsim.hop_ns"], _ = cost(probeHop)
	v["place.lookup_ns"], _ = cost(probePlace)
	v["workload.gen_ns_per_tx.db200"], v["workload.gen_allocs_per_tx"] = cost(probeGenerate(paperDBSize))
	v["workload.gen_ns_per_tx.db10000"], _ = cost(probeGenerate(10000))
	v["stats.add_ns"], _ = cost(probeStatsAdd)
	v["stats.sketch_observe_ns"], _ = cost(probeSketch)
	v["metrics.histogram_observe_ns"], _ = cost(probeHistogram)
	v["timeline.tx_ns"], _ = cost(probeTimeline)

	schedules := max(32, int(per.Seconds()*4000))
	w1, _, err := probeExplore(1, schedules)
	if err != nil {
		return nil, fmt.Errorf("probe explore: %w", err)
	}
	w2, distinct, err := probeExplore(2, schedules)
	if err != nil {
		return nil, fmt.Errorf("probe explore: %w", err)
	}
	v["explore.schedules_per_s.w1"] = w1
	v["explore.schedules_per_s.w2"] = w2
	v["explore.parallel_eff"] = w2 / (2 * w1)
	v["explore.distinct_per_cpu_s"] = distinct
	return v, nil
}
