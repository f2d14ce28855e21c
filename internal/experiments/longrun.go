package experiments

// The streaming soak: a single-site run long enough (a million
// transactions by default) that materializing the load, the raw
// per-transaction records, or an unbounded metrics table would dominate
// memory. Arrivals stream one event at a time, raw record retention is
// capped, and the windowed timeline is the primary observable — the
// whole run holds O(windows + cap) state regardless of Count.

import (
	"fmt"

	"rtlock/internal/db"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/timeline"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// LongRunParams configures the streaming soak. The zero value runs the
// calibrated million-transaction bursty load under the ceiling protocol.
type LongRunParams struct {
	Protocol Protocol
	Seed     int64
	// Count is the number of transactions (default 1,000,000).
	Count int
	// DBSize (default 10000) keeps the conflict rate moderate so the
	// run is throughput-bound, not livelocked.
	DBSize int
	// CPUPerObj (default 1ms) with MeanSize (default 4) and
	// MeanInterarrival (default 6ms) put base utilization near 2/3;
	// bursts push it past saturation.
	CPUPerObj        sim.Duration
	MeanSize         int
	MeanInterarrival sim.Duration
	// BurstFactor/BurstOn/BurstOff shape the deterministic burst square
	// wave (defaults 3, 2s on, 8s off).
	BurstFactor       float64
	BurstOn, BurstOff sim.Duration
	// Window is the timeline window width (default 10s virtual);
	// MaxWindows bounds retained rows (0 = timeline.DefaultMaxWindows).
	Window     sim.Duration
	MaxWindows int
	// MaxRawRecords caps raw per-transaction retention (default 4096).
	MaxRawRecords int
}

func (p *LongRunParams) fill() {
	if p.Protocol == "" {
		p.Protocol = ProtoCeiling
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Count == 0 {
		p.Count = 1_000_000
	}
	if p.DBSize == 0 {
		p.DBSize = 10_000
	}
	if p.CPUPerObj == 0 {
		p.CPUPerObj = sim.Millisecond
	}
	if p.MeanSize == 0 {
		p.MeanSize = 4
	}
	if p.MeanInterarrival == 0 {
		p.MeanInterarrival = 6 * sim.Millisecond
	}
	if p.BurstFactor == 0 {
		p.BurstFactor = 3
	}
	if p.BurstOn == 0 {
		p.BurstOn = 2 * sim.Second
	}
	if p.BurstOff == 0 {
		p.BurstOff = 8 * sim.Second
	}
	if p.Window == 0 {
		p.Window = 10 * sim.Second
	}
	if p.MaxRawRecords == 0 {
		p.MaxRawRecords = 4096
	}
}

// LongRunResult is the bounded-size outcome of a streaming soak.
type LongRunResult struct {
	Summary  stats.Summary
	Timeline []metrics.TimelineRow
	// TimelineDropped counts windows evicted from the ring.
	TimelineDropped int
	// RawRetained/RawDropped report the record cap in effect: retained
	// never exceeds MaxRawRecords no matter how large Count is.
	RawRetained, RawDropped int
}

// LongRun executes the streaming soak and returns the windowed
// timeline. Memory stays bounded by (windows retained + record cap +
// live transactions), not by Count.
func LongRun(p LongRunParams) (*LongRunResult, error) {
	p.fill()
	newMgr, disc, err := ManagerFor(p.Protocol)
	if err != nil {
		return nil, err
	}
	cat, err := db.NewCatalog(1, p.DBSize)
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(workload.Params{
		Seed:             p.Seed,
		Catalog:          cat,
		Count:            p.Count,
		MeanInterarrival: p.MeanInterarrival,
		MeanSize:         p.MeanSize,
		PerObjCost:       p.CPUPerObj,
		SlackMin:         4,
		SlackMax:         8,
		BurstFactor:      p.BurstFactor,
		BurstOn:          p.BurstOn,
		BurstOff:         p.BurstOff,
	})
	if err != nil {
		return nil, err
	}
	tl := timeline.New(timeline.Config{Window: p.Window, MaxWindows: p.MaxWindows}, nil)
	if tl == nil {
		return nil, fmt.Errorf("experiments: long run window %v invalid", p.Window)
	}
	sys, err := txn.NewSystem(txn.Config{
		CPUPerObj:     p.CPUPerObj,
		CPUDiscipline: disc,
		NewManager:    newMgr,
		Timeline:      tl,
		MaxRawRecords: p.MaxRawRecords,
	})
	if err != nil {
		return nil, err
	}
	sys.LoadStream(stream)
	sum := sys.Run()
	return &LongRunResult{
		Summary:         sum,
		Timeline:        tl.Rows(),
		TimelineDropped: tl.Dropped(),
		RawRetained:     sys.Monitor.RawRetained(),
		RawDropped:      sys.Monitor.RawDropped(),
	}, nil
}
