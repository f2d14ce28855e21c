// Package timeline is a run's one time-series store: a bounded ring of
// fixed virtual-time windows, each a row of throughput, deadline
// misses, response-time quantiles, lock waiting and network loss — the
// streaming counterpart of the end-of-run aggregates in internal/stats
// — plus, when the run exports its metrics registry, a snapshot of
// every series at the window's end.
//
// The transaction layer reports every finished transaction with Tx; the
// kernel's sampling tick closes the windows (sim.Kernel.SetWindows):
// at each boundary, before any event at that time, and once more when
// the run drains. A window [start, end) owns the transactions finishing
// inside it; probe-derived fields (lock-wait quantiles, net counters,
// the in-flight gauge) are read at the boundary, so activity after it
// belongs to the later window. Both rules are functions of the event
// sequence only, so two runs of the same (seed, config) pair produce
// byte-identical timelines.
//
// Memory is bounded at construction: a preallocated ring of MaxWindows
// rows (oldest windows evicted, count reported by Dropped), whose
// snapshot slices are reused once the ring wraps, one reusable
// response-time sketch, and scratch slices for histogram snapshots.
// The hot path (Tx and window close) allocates nothing in steady state
// (TestHotPathAllocFree) and never touches the replay journal
// (TestTimelineZeroOverhead, package rtlock).
package timeline

import (
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
)

// Row is one closed window; see metrics.TimelineRow for field docs.
type Row = metrics.TimelineRow

// DefaultMaxWindows is the ring capacity when Config.MaxWindows is not
// positive: enough for a virtual day of 21s windows, ~5 MB of rows.
const DefaultMaxWindows = 4096

// Config sizes a Collector.
type Config struct {
	// Window is the virtual-time width of one row. It must be positive;
	// New returns nil otherwise, and every Collector method is nil-safe,
	// so a zero Window is simply "timeline off".
	Window sim.Duration
	// MaxWindows bounds the ring of retained rows; non-positive picks
	// DefaultMaxWindows.
	MaxWindows int
}

// Collector accumulates the open window and the ring of closed rows.
type Collector struct {
	window sim.Duration
	rows   []Row // ring storage, len == cap == MaxWindows
	head   int   // index of oldest retained row
	n      int   // retained rows
	lost   int   // rows overwritten by ring wrap
	snap   bool  // store a registry snapshot in each row

	// Open-window state.
	winIdx   int
	start    sim.Time
	procd    int64
	commit   int64
	missed   int64
	restarts int64
	respSum  sim.Duration
	sketch   *stats.Sketch

	// Probe registry, handles and close scratch, bound at the first
	// close. A probe no layer registers leaves its fields zero.
	probes     *metrics.Registry
	bound      bool
	lockWait   metrics.Histogram
	lockBounds []int64
	lockPrev   []int64 // cumulative bucket counts at the last close
	lockCur    []int64 // snapshot scratch
	lockPrevN  int64
	inflight   metrics.Gauge
	netDrop    [3]metrics.Counter
	netDup     metrics.Counter
	netLostPrv int64
	netDupPrv  int64
}

// New builds a collector reading probe series from reg, the run's
// exported registry, and storing a snapshot of it in every row; a nil
// reg gets a private registry, never snapshotted, which Probes returns
// for the run to attach to its kernel.
func New(cfg Config, reg *metrics.Registry) *Collector {
	if cfg.Window <= 0 {
		return nil
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = DefaultMaxWindows
	}
	c := &Collector{
		window: cfg.Window,
		rows:   make([]Row, cfg.MaxWindows),
		snap:   reg != nil,
		sketch: stats.NewSketch(0, 0), // the stats package's default geometry
		probes: reg,
	}
	if reg == nil {
		c.probes = metrics.New()
	}
	return c
}

// bind resolves the probe series the layers registered while the run
// was built. Looking them up rather than registering them keeps an
// exported registry free of series no layer updates.
func (c *Collector) bind() {
	reg := c.probes
	c.lockWait = metrics.Find[metrics.Histogram](reg, "lock_wait_ticks")
	c.lockBounds = c.lockWait.Bounds()
	c.lockPrev = make([]int64, len(c.lockBounds))
	c.lockCur = make([]int64, len(c.lockBounds))
	c.inflight = metrics.Find[metrics.Gauge](reg, "txn_inflight")
	for i, reason := range [...]string{"down", "cut", "fault"} {
		c.netDrop[i] = metrics.Find[metrics.Counter](reg, "net_msgs_dropped_total", metrics.L("reason", reason))
	}
	c.netDup = metrics.Find[metrics.Counter](reg, "net_msgs_duplicated_total")
	c.bound = true
}

// Probes returns the registry the collector reads its probe series
// from (nil on a nil collector).
func (c *Collector) Probes() *metrics.Registry {
	if c == nil {
		return nil
	}
	return c.probes
}

// Window returns the configured window width (0 on a nil collector).
func (c *Collector) Window() sim.Duration {
	if c == nil {
		return 0
	}
	return c.window
}

// Tx reports one finished transaction to the open window: whether it
// committed, its response time (ignored unless committed), and how many
// times it restarted. The finish time is the caller's clock, which the
// kernel's tick has already closed every earlier window for.
func (c *Collector) Tx(finish sim.Time, committed bool, resp sim.Duration, restarts int) {
	if c == nil {
		return
	}
	c.procd++
	c.restarts += int64(restarts)
	if committed {
		c.commit++
		c.respSum += resp
		c.sketch.Observe(resp)
	} else {
		c.missed++
	}
}

// Close stores the open window as a row ending at end (start + window,
// except for the partial last window the drain closes), evicting the
// oldest row when the ring is full, and opens the next window at end.
// The kernel's tick calls it (sim.Kernel.SetWindows).
func (c *Collector) Close(end sim.Time) {
	if c == nil {
		return
	}
	if !c.bound {
		c.bind()
	}
	row := Row{
		Window:    c.winIdx,
		Start:     int64(c.start),
		End:       int64(end),
		Processed: c.procd,
		Committed: c.commit,
		Missed:    c.missed,
		Restarts:  c.restarts,
	}
	if c.procd > 0 {
		row.MissPct = float64(c.missed) / float64(c.procd) * 100
	}
	if dur := end.Sub(c.start); dur > 0 {
		row.Throughput = float64(c.commit) * float64(sim.Second) / float64(dur)
	}
	if c.commit > 0 {
		row.MeanResp = int64(c.respSum / sim.Duration(c.commit))
		row.P50Resp = int64(c.sketch.Quantile(0.5))
		row.P99Resp = int64(c.sketch.Quantile(0.99))
	}
	row.LockWaitP50, row.LockWaitP99 = c.lockWaitQuantiles()
	lost := c.netDrop[0].Value() + c.netDrop[1].Value() + c.netDrop[2].Value()
	row.NetLost = lost - c.netLostPrv
	c.netLostPrv = lost
	dup := c.netDup.Value()
	row.NetDup = dup - c.netDupPrv
	c.netDupPrv = dup
	row.InFlight = c.inflight.Value()

	i := c.head + c.n
	if c.n == len(c.rows) {
		c.head++
		if c.head == len(c.rows) {
			c.head = 0
		}
		c.lost++
	} else {
		c.n++
	}
	if i >= len(c.rows) {
		i -= len(c.rows)
	}
	if c.snap {
		row.Series = c.probes.Snapshot(c.rows[i].Series[:0])
	}
	c.rows[i] = row

	c.winIdx++
	c.start = end
	c.procd, c.commit, c.missed, c.restarts = 0, 0, 0, 0
	c.respSum = 0
	c.sketch.Reset()
}

// lockWaitQuantiles diffs the cumulative lock-wait histogram against
// the previous close and answers nearest-rank p50/p99 over the
// delta, each as the containing bucket's upper bound (observations
// beyond the last bound answer the last bound).
func (c *Collector) lockWaitQuantiles() (p50, p99 int64) {
	if len(c.lockBounds) == 0 {
		return 0, 0
	}
	count, _ := c.lockWait.Snapshot(c.lockCur)
	dn := count - c.lockPrevN
	c.lockPrevN = count
	if dn <= 0 {
		for i, v := range c.lockCur {
			c.lockPrev[i] = v
		}
		return 0, 0
	}
	// Ceil-rank without floats: rank(q) = ceil(q·dn) with q = p/100.
	rank50 := (50*dn + 99) / 100
	rank99 := (99*dn + 99) / 100
	var seen int64
	var got50, got99 bool
	for i, v := range c.lockCur {
		d := v - c.lockPrev[i]
		c.lockPrev[i] = v
		seen += d
		if !got50 && seen >= rank50 {
			p50, got50 = c.lockBounds[i], true
		}
		if !got99 && seen >= rank99 {
			p99, got99 = c.lockBounds[i], true
		}
	}
	last := c.lockBounds[len(c.lockBounds)-1]
	if !got50 {
		p50 = last
	}
	if !got99 {
		p99 = last
	}
	return p50, p99
}

// Rows returns the retained rows, oldest first, as a fresh slice. Their
// Series share storage with the ring, so they hold until the next Close.
func (c *Collector) Rows() []Row {
	if c == nil || c.n == 0 {
		return nil
	}
	out := make([]Row, c.n)
	k := copy(out, c.rows[c.head:min(c.head+c.n, len(c.rows))])
	copy(out[k:], c.rows[:c.n-k])
	return out
}

// Dropped reports how many closed windows the ring has overwritten.
func (c *Collector) Dropped() int {
	if c == nil {
		return 0
	}
	return c.lost
}
