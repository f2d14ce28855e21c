package rtlock

// Declarative run specifications. The paper's prototyping environment
// front end (the menu-driven User Interface plus Configuration Manager)
// lets an experimenter describe system configuration, database
// configuration, load characteristics, and the concurrency control to
// use; this file provides the equivalent as a JSON document that can be
// checked into an experiment directory and replayed exactly.

import (
	"encoding/json"
	"fmt"
	"os"

	"rtlock/internal/core"
	"rtlock/internal/place"
)

// Spec is a complete, serializable run description. Exactly one of the
// modes is selected by Mode ("single" or "distributed"); ParseSpec
// rejects a spec that sets a field only the other mode reads.
type Spec struct {
	// Mode selects "single" (one site, Figures 2–3 setting) or
	// "distributed" (Figures 4–6 setting).
	Mode string `json:"mode"`
	// Protocol applies to single-site runs: a letter of the protocol
	// table (empty means C). Distributed runs always use the ceiling
	// protocol, per the paper, so a distributed spec may name only C.
	Protocol string `json:"protocol,omitempty"`
	// Global selects the global-ceiling-manager architecture for
	// distributed runs.
	Global bool `json:"global,omitempty"`
	// Placement selects the distributed data-placement policy: "" or
	// "full" (the paper's replicated layout), "shard", "quorum", or
	// "primary" (see DistributedConfig.Placement).
	Placement string `json:"placement,omitempty"`
	// HashShards switches the primary mapping from range to hash
	// partitioning (placement runs only).
	HashShards bool `json:"hashShards,omitempty"`
	// Replicas, ReadQuorum, and WriteQuorum parameterize the quorum
	// placement (K, R, W).
	Replicas    int `json:"replicas,omitempty"`
	ReadQuorum  int `json:"readQuorum,omitempty"`
	WriteQuorum int `json:"writeQuorum,omitempty"`

	DBSize         int     `json:"dbSize,omitempty"`
	Sites          int     `json:"sites,omitempty"`
	CPUPerObjMs    float64 `json:"cpuPerObjMs,omitempty"`
	IOPerObjMs     float64 `json:"ioPerObjMs,omitempty"`
	MemoryResident bool    `json:"memoryResident,omitempty"`
	CommDelayMs    float64 `json:"commDelayMs,omitempty"`
	ApplyPerObjMs  float64 `json:"applyPerObjMs,omitempty"`
	Multiversion   bool    `json:"multiversion,omitempty"`
	SnapshotLagMs  float64 `json:"snapshotLagMs,omitempty"`

	Failures  []SpecFailure `json:"failures,omitempty"`
	SiteSpeed []float64     `json:"siteSpeed,omitempty"`

	Workload SpecWorkload `json:"workload"`

	RecordHistory bool `json:"recordHistory,omitempty"`
	TraceEvents   int  `json:"traceEvents,omitempty"`
	BufferPages   int  `json:"bufferPages,omitempty"`
	IODisks       int  `json:"ioDisks,omitempty"`

	// Audit checks the protocol invariants as the run goes, into
	// Result.Violations; Journal keeps the records, in Result.Journal.
	// Audit alone keeps none.
	Journal bool `json:"journal,omitempty"`
	Audit   bool `json:"audit,omitempty"`

	// Metrics fills a deterministic metrics registry into
	// Result.Metrics, snapshots it into every window row of
	// Result.Timeline, and profiles lock contention into
	// Result.LockProfile, keeping no records; MetricsIntervalMs is the
	// window width when TimelineWindowMs is unset (zero picks 100ms).
	Metrics           bool    `json:"metrics,omitempty"`
	MetricsIntervalMs float64 `json:"metricsIntervalMs,omitempty"`

	WAL               bool    `json:"wal,omitempty"`
	CheckpointEveryMs float64 `json:"checkpointEveryMs,omitempty"`

	// TimelineWindowMs rolls the run into virtual-time windows of this
	// width, the run's one window width, and fills Result.Timeline
	// (bounded memory, no journal); TimelineMaxWindows bounds the
	// retained rows (0 = 4096) and MaxRawRecords caps per-transaction
	// record retention (0 = all).
	TimelineWindowMs   float64 `json:"timelineWindowMs,omitempty"`
	TimelineMaxWindows int     `json:"timelineMaxWindows,omitempty"`
	MaxRawRecords      int     `json:"maxRawRecords,omitempty"`
}

// SpecWorkload mirrors WorkloadConfig with JSON-friendly units.
type SpecWorkload struct {
	Seed               int64   `json:"seed,omitempty"`
	Count              int     `json:"count,omitempty"`
	MeanInterarrivalMs float64 `json:"meanInterarrivalMs,omitempty"`
	MeanSize           int     `json:"meanSize,omitempty"`
	ReadOnlyFrac       float64 `json:"readOnlyFrac,omitempty"`
	SlackMin           float64 `json:"slackMin,omitempty"`
	SlackMax           float64 `json:"slackMax,omitempty"`
	PeriodicFrac       float64 `json:"periodicFrac,omitempty"`
	PeriodMs           float64 `json:"periodMs,omitempty"`
	BurstFactor        float64 `json:"burstFactor,omitempty"`
	BurstOnMs          float64 `json:"burstOnMs,omitempty"`
	BurstOffMs         float64 `json:"burstOffMs,omitempty"`
	LocalityProb       float64 `json:"localityProb,omitempty"`
}

// SpecFailure mirrors SiteFailure with JSON-friendly units.
type SpecFailure struct {
	Site        int     `json:"site"`
	AtMs        float64 `json:"atMs"`
	RecoverAtMs float64 `json:"recoverAtMs,omitempty"`
}

// ParseSpec decodes and validates a JSON run specification.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("rtlock: parse spec: %w", err)
	}
	switch s.Mode {
	case "single", "distributed":
	default:
		return nil, fmt.Errorf("rtlock: spec mode %q (want \"single\" or \"distributed\")", s.Mode)
	}
	if field := s.otherModeField(); field != "" {
		return nil, fmt.Errorf("rtlock: spec field %q does not apply to %s mode", field, s.Mode)
	}
	if s.Mode == "single" && s.Protocol != "" {
		if _, err := core.Lookup(Protocol(s.Protocol)); err != nil {
			return nil, fmt.Errorf("rtlock: spec: %w", err)
		}
	}
	if s.Workload.ReadOnlyFrac < 0 || s.Workload.ReadOnlyFrac > 1 {
		return nil, fmt.Errorf("rtlock: spec readOnlyFrac %v out of [0,1]", s.Workload.ReadOnlyFrac)
	}
	if s.Placement != "" {
		if _, err := place.ParsePolicy(s.Placement); err != nil {
			return nil, err
		}
	}
	if s.Workload.LocalityProb < 0 || s.Workload.LocalityProb > 1 {
		return nil, fmt.Errorf("rtlock: spec localityProb %v out of [0,1]", s.Workload.LocalityProb)
	}
	return &s, nil
}

// otherModeField returns the JSON name of the first field s sets that
// only the other mode reads, or "": Run would silently drop it.
// Distributed runs use the ceiling protocol, so a distributed spec may
// name C and no other.
func (s *Spec) otherModeField() string {
	type field struct {
		name string
		set  bool
	}
	fields := []field{
		{"placement", s.Placement != ""}, {"global", s.Global}, {"hashShards", s.HashShards},
		{"replicas", s.Replicas != 0}, {"readQuorum", s.ReadQuorum != 0}, {"writeQuorum", s.WriteQuorum != 0},
		{"sites", s.Sites != 0}, {"commDelayMs", s.CommDelayMs != 0}, {"applyPerObjMs", s.ApplyPerObjMs != 0},
		{"multiversion", s.Multiversion}, {"snapshotLagMs", s.SnapshotLagMs != 0},
		{"failures", len(s.Failures) > 0}, {"siteSpeed", len(s.SiteSpeed) > 0},
		{"workload.localityProb", s.Workload.LocalityProb != 0},
	}
	if s.Mode == "distributed" {
		fields = []field{
			{"protocol", s.Protocol != "" && Protocol(s.Protocol) != Ceiling},
			{"ioPerObjMs", s.IOPerObjMs != 0}, {"memoryResident", s.MemoryResident},
			{"bufferPages", s.BufferPages != 0}, {"ioDisks", s.IODisks != 0}, {"wal", s.WAL},
			{"checkpointEveryMs", s.CheckpointEveryMs != 0}, {"traceEvents", s.TraceEvents != 0},
		}
	}
	for _, f := range fields {
		if f.set {
			return f.name
		}
	}
	return ""
}

// LoadSpec reads a specification file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rtlock: load spec: %w", err)
	}
	return ParseSpec(data)
}

// Run executes the specification.
func (s *Spec) Run() (*Result, error) {
	wl := WorkloadConfig{
		Seed:             s.Workload.Seed,
		Count:            s.Workload.Count,
		MeanInterarrival: ms(s.Workload.MeanInterarrivalMs),
		MeanSize:         s.Workload.MeanSize,
		ReadOnlyFrac:     s.Workload.ReadOnlyFrac,
		SlackMin:         s.Workload.SlackMin,
		SlackMax:         s.Workload.SlackMax,
		PeriodicFrac:     s.Workload.PeriodicFrac,
		Period:           ms(s.Workload.PeriodMs),
		BurstFactor:      s.Workload.BurstFactor,
		BurstOn:          ms(s.Workload.BurstOnMs),
		BurstOff:         ms(s.Workload.BurstOffMs),
		LocalityProb:     s.Workload.LocalityProb,
	}
	if s.Mode == "single" {
		return RunSingleSite(SingleSiteConfig{
			Protocol:           Protocol(s.Protocol),
			DBSize:             s.DBSize,
			CPUPerObj:          ms(s.CPUPerObjMs),
			IOPerObj:           ms(s.IOPerObjMs),
			MemoryResident:     s.MemoryResident,
			Workload:           wl,
			RecordHistory:      s.RecordHistory,
			TraceEvents:        s.TraceEvents,
			BufferPages:        s.BufferPages,
			IODisks:            s.IODisks,
			WAL:                s.WAL,
			CheckpointEvery:    ms(s.CheckpointEveryMs),
			Journal:            s.Journal,
			Audit:              s.Audit,
			Metrics:            s.Metrics,
			MetricsInterval:    ms(s.MetricsIntervalMs),
			TimelineWindow:     ms(s.TimelineWindowMs),
			TimelineMaxWindows: s.TimelineMaxWindows,
			MaxRawRecords:      s.MaxRawRecords,
		})
	}
	var failures []SiteFailure
	for _, f := range s.Failures {
		failures = append(failures, SiteFailure{
			Site:      SiteID(f.Site),
			At:        Time(ms(f.AtMs)),
			RecoverAt: Time(ms(f.RecoverAtMs)),
		})
	}
	return RunDistributed(DistributedConfig{
		Global:             s.Global,
		Placement:          s.Placement,
		HashShards:         s.HashShards,
		Replicas:           s.Replicas,
		ReadQuorum:         s.ReadQuorum,
		WriteQuorum:        s.WriteQuorum,
		Sites:              s.Sites,
		DBSize:             s.DBSize,
		CommDelay:          ms(s.CommDelayMs),
		CPUPerObj:          ms(s.CPUPerObjMs),
		ApplyPerObj:        ms(s.ApplyPerObjMs),
		Multiversion:       s.Multiversion,
		SnapshotLag:        ms(s.SnapshotLagMs),
		Failures:           failures,
		SiteSpeed:          s.SiteSpeed,
		Workload:           wl,
		RecordHistory:      s.RecordHistory,
		Journal:            s.Journal,
		Audit:              s.Audit,
		Metrics:            s.Metrics,
		MetricsInterval:    ms(s.MetricsIntervalMs),
		TimelineWindow:     ms(s.TimelineWindowMs),
		TimelineMaxWindows: s.TimelineMaxWindows,
		MaxRawRecords:      s.MaxRawRecords,
	})
}

// ms converts fractional milliseconds to simulated duration.
func ms(v float64) Duration { return Duration(v * float64(Millisecond)) }
