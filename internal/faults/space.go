package faults

// Space bounds a fault-space exploration: the decision instants and
// per-message fates a chooser may pick among. Every decision has
// canonical alternative 0 = "inject nothing", so a canonical chooser
// (or none) makes the space a strict no-op and the run byte-identical
// to a fault-free one.
type Space struct {
	// CrashPoints are the virtual ticks at which a crash decision is
	// surfaced (sim.ChooseCrash, 1+sites alternatives: none, or crash
	// site i-1).
	CrashPoints []int64
	// DownFor is how long a chosen crash keeps the site down before
	// recovery (<= 0 means crashed sites never recover).
	DownFor int64
	// MaxMsgFates caps how many inter-site messages surface a fate
	// decision (sim.ChooseFate): only the first MaxMsgFates injector
	// consults branch, bounding exploration depth. 0 disables message
	// fates.
	MaxMsgFates int
	// AllowDup adds "duplicate" as a third fate alternative beyond
	// deliver/drop.
	AllowDup bool
	// CutPoints are the virtual ticks at which a partition decision is
	// surfaced (sim.ChooseCut, 1+sites alternatives: none, or isolate
	// site i-1; a one-site run has nothing to cut and no alternative).
	CutPoints []int64
	// CutFor is how long a chosen cut lasts before healing (<= 0 means
	// it never heals).
	CutFor int64
}
