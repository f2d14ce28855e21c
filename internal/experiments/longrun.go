package experiments

// The streaming soak: a single-site run long enough (a million
// transactions by default) that materializing the load, the raw
// per-transaction records, or an unbounded metrics table would dominate
// memory. Arrivals stream one event at a time, raw record retention is
// capped, and the windowed timeline is the primary observable — the
// whole run holds O(windows + cap) state regardless of Count.

import (
	"fmt"

	"rtlock/internal/sim"
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

// LongRun executes the streaming soak: a Result with the windowed
// timeline and no records, so memory stays bounded by (windows retained +
// record cap + live transactions), not by Count.
func LongRun(p LongRunParams) (*Result, error) {
	p.fill()
	if p.Window <= 0 {
		return nil, fmt.Errorf("experiments: long run window %v invalid", p.Window)
	}
	return runSingleSite(SingleSiteConfig{
		Protocol: p.Protocol, DBSize: p.DBSize, CPUPerObj: p.CPUPerObj, MemoryResident: true,
		TimelineWindow: p.Window, TimelineMaxWindows: p.MaxWindows, MaxRawRecords: p.MaxRawRecords,
		Workload: WorkloadConfig{Seed: p.Seed, Count: p.Count, MeanInterarrival: p.MeanInterarrival,
			MeanSize: p.MeanSize, SlackMin: 4, SlackMax: 8,
			BurstFactor: p.BurstFactor, BurstOn: p.BurstOn, BurstOff: p.BurstOff},
	}, false)
}
