// Package metrics is the simulator's deterministic observability layer:
// a registry of counters, gauges, and fixed-bucket histograms holding
// live values, and the exporters of a run's window ring (TimelineRow,
// each carrying a registry snapshot when the registry is exported).
// Nothing in this package reads the wall clock or any other ambient
// state — snapshots are taken only when the kernel closes a
// virtual-time window — so two runs of the same (seed, config) pair
// produce byte-identical metric output, and the exporters (Prometheus
// text, CSV, JSONL, HTML) are pure functions of the registry and rows.
//
// Probe sites hold typed handles (Counter, Gauge, Histogram) obtained
// from the registry once and updated on the hot path. Every handle and
// the registry itself are nil-safe: a subsystem wired for metrics but
// running without a registry pays only a nil check per update, and the
// replay journal is never touched, so enabling metrics cannot perturb a
// run's event interleaving: TestMetricsZeroOverhead (package rtlock)
// requires a metrics run's journal to be record-identical to a plain
// one's.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one key/value dimension of a series. Labels are sorted by
// key when the series is created, so the same set in any order names
// the same series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricType int

const (
	counterType metricType = iota + 1
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefDurationBounds is the default histogram bucketing for virtual-time
// durations, in ticks (1 tick = 1µs): roughly exponential from 100µs to
// 5s, matching the simulator's millisecond-scale service times.
var DefDurationBounds = []int64{
	100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
}

// family is one named metric with a fixed type and any number of
// labeled series.
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []int64 // histogram upper bounds, exclusive of +Inf

	byKey map[string]*series
	order []*series // creation order; exporters sort by key
}

// series is one (family, label set) time series.
type series struct {
	key    string // canonical label rendering, "" for unlabeled
	labels []Label
	col    int // offset of the series' values in a Snapshot

	val       int64   // counter/gauge current value
	buckets   []int64 // histogram per-bound counts (non-cumulative)
	boundsRef []int64 // the family's bounds, mirrored for Observe; nil unless a histogram
	sum       int64
	count     int64
}

// Registry holds the metric families and their live values; the run's
// window ring keeps the time series (see Snapshot). All methods are
// nil-safe on a nil *Registry, returning no-op handles, so disabled
// metrics cost only nil checks at the probe sites.
type Registry struct {
	families map[string]*family
	order    []*family // creation order; exporters sort by name
	all      []*series // creation order, which Snapshot follows
	width    int       // values per Snapshot
	samples  int       // snapshots taken
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns (creating on first use) the counter series for the
// given name and labels.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{s: r.series(name, help, counterType, nil, labels)}
}

// Gauge returns (creating on first use) the gauge series for the given
// name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{s: r.series(name, help, gaugeType, nil, labels)}
}

// Histogram returns (creating on first use) the histogram series for
// the given name and labels. bounds are the inclusive upper bucket
// bounds (+Inf is implicit); nil picks DefDurationBounds. The bounds of
// the first registration win.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	if bounds == nil {
		bounds = DefDurationBounds
	}
	return Histogram{s: r.series(name, help, histogramType, bounds, labels)}
}

func (r *Registry) series(name, help string, typ metricType, bounds []int64, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	s, ok := f.byKey[key]
	if !ok {
		s = &series{key: key, labels: canonLabels(labels), col: r.width}
		r.width++
		if typ == histogramType {
			s.buckets = make([]int64, len(f.bounds))
			s.boundsRef = f.bounds
			r.width++ // count and sum
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
		r.all = append(r.all, s)
	}
	return s
}

// Find returns the handle of a series some layer has already
// registered, or a no-op handle when none has: a reader of probes
// (the timeline's window columns) must not add series to the export.
func Find[H Counter | Gauge | Histogram](r *Registry, name string, labels ...Label) H {
	if r == nil || r.families[name] == nil {
		return H{}
	}
	return H{s: r.families[name].byKey[renderLabels(labels)]}
}

// Snapshot appends the current value of every series to dst and returns
// it: counters and gauges as their value, histograms as count then sum,
// in creation order, so a series' values sit at the same offset in
// every snapshot and a series created later lies past the end of the
// snapshots taken before it. Reusing dst's storage, a snapshot of an
// unchanged registry allocates nothing.
func (r *Registry) Snapshot(dst []int64) []int64 {
	if r == nil {
		return dst
	}
	r.samples++
	for _, s := range r.all {
		if s.boundsRef != nil {
			dst = append(dst, s.count, s.sum)
		} else {
			dst = append(dst, s.val)
		}
	}
	return dst
}

// Samples reports how many snapshots have been taken, counting those
// the window ring has since evicted.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return r.samples
}

// canonLabels returns a sorted copy of the labels.
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// renderLabels produces the canonical `{k="v",…}` rendering ("" when
// unlabeled), used both as the series key and in the exposition output.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := canonLabels(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter is a monotonically increasing series handle.
type Counter struct{ s *series }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c Counter) Add(n int64) {
	if c.s == nil || n < 0 {
		return
	}
	c.s.val += n
}

// Value returns the current count.
func (c Counter) Value() int64 {
	if c.s == nil {
		return 0
	}
	return c.s.val
}

// Gauge is an up/down series handle.
type Gauge struct{ s *series }

// Set replaces the value.
func (g Gauge) Set(v int64) {
	if g.s == nil {
		return
	}
	g.s.val = v
}

// Add adjusts the value by n (may be negative).
func (g Gauge) Add(n int64) {
	if g.s == nil {
		return
	}
	g.s.val += n
}

// Value returns the current value.
func (g Gauge) Value() int64 {
	if g.s == nil {
		return 0
	}
	return g.s.val
}

// Histogram is a fixed-bucket distribution handle.
type Histogram struct{ s *series }

// Observe records one value.
func (h Histogram) Observe(v int64) {
	if h.s == nil {
		return
	}
	h.s.count++
	h.s.sum += v
	for i, ub := range h.s.boundsRef {
		if v <= ub {
			h.s.buckets[i]++
			return
		}
	}
	// Above every bound: counted in +Inf only (count/sum above).
}

// Count returns the number of observations.
func (h Histogram) Count() int64 {
	if h.s == nil {
		return 0
	}
	return h.s.count
}

// Sum returns the sum of observations.
func (h Histogram) Sum() int64 {
	if h.s == nil {
		return 0
	}
	return h.s.sum
}

// Bounds returns the histogram's upper bucket bounds (nil for a no-op
// handle). The slice is shared, not copied; callers must not mutate it.
func (h Histogram) Bounds() []int64 {
	if h.s == nil {
		return nil
	}
	return h.s.boundsRef
}

// Snapshot copies the per-bound bucket counts into dst — which must be
// at least len(Bounds()) long — and returns the running count and sum.
// Observations above the last bound appear in count/sum only. The
// method allocates nothing, so window-close code can diff successive
// snapshots on the hot path.
func (h Histogram) Snapshot(dst []int64) (count, sum int64) {
	if h.s == nil {
		return 0, 0
	}
	copy(dst, h.s.buckets)
	return h.s.count, h.s.sum
}
