// Package stats is the performance monitor: it records the paper's
// per-transaction statistics (arrival and start times, total processing
// time, blocked interval, deadline hit or miss, aborts) and derives the
// two headline metrics of the evaluation — normalized transaction
// throughput in data objects accessed per second for successful
// transactions, and the percentage of deadline-missing transactions,
// %missed = 100 × missed / processed.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rtlock/internal/db"
	"rtlock/internal/sim"
)

// Outcome classifies how a transaction left the system.
type Outcome int

// Transaction outcomes. Every processed transaction either commits or is
// aborted at its deadline (transactions are hard: a missed deadline has
// no residual value and the transaction disappears, §3.2).
const (
	Committed Outcome = iota + 1
	DeadlineMissed
)

// TxRecord is the monitor's per-transaction record.
type TxRecord struct {
	ID       int64
	Site     db.SiteID
	Size     int
	ReadOnly bool

	Arrival  sim.Time
	Start    sim.Time
	Finish   sim.Time
	Deadline sim.Time

	Outcome      Outcome
	Blocked      sim.Duration
	BlockedCount int
	Messages     int
	// Restarts counts aborted-and-retried attempts under abort-based
	// protocols (the paper's per-transaction "number of aborts").
	Restarts int
}

// Monitor accumulates transaction statistics for one run. Every
// aggregate the paper reports (throughput, %missed, mean blocked and
// response times, restart and message totals) is maintained as a running
// sum or count at Add time, so the aggregates cost O(1) memory regardless
// of run length. Raw TxRecords are additionally retained for callers
// that want per-transaction detail; SetMaxRaw caps that retention (a ring
// of the most recent records) so million-transaction runs stay bounded.
// A capped monitor also holds one deterministic fixed-bucket sketch of
// committed response times, made when the cap is set, which answers the
// percentiles once the cap has evicted records; an uncapped monitor
// keeps every record and holds no sketch.
type Monitor struct {
	records []TxRecord
	maxRaw  int // 0 = retain everything
	next    int // ring write index once the cap is reached
	dropped int // records processed but no longer retained
	horizon sim.Time

	// Streaming aggregates, updated on every Add.
	processed    int
	committed    int
	objects      int // objects accessed by committed transactions
	totalBlocked sim.Duration
	blockedCount int
	totalResp    sim.Duration // over committed transactions
	restarts     int
	messages     int

	respSketch *Sketch // committed response times; nil until a cap is set
}

// NewMonitor returns an empty, uncapped monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Reset empties the monitor, keeping its record buffer, and sets the
// raw-retention cap as SetMaxRaw does.
func (m *Monitor) Reset(maxRaw int) {
	*m = Monitor{records: m.records[:0]}
	m.SetMaxRaw(maxRaw)
}

// SetMaxRaw caps raw TxRecord retention at n records (0 restores
// unlimited retention): once n records are held, each Add overwrites the
// oldest. The streaming aggregates are unaffected — only Records (and
// the exact percentile path) see the bounded window. The first positive
// cap creates the response-time sketch and seeds it from the committed
// records retained so far; an uncapped monitor has retained every
// record, so capping late gives the same sketch as capping before the
// run. Changing the cap mid-run keeps the newest records.
func (m *Monitor) SetMaxRaw(n int) {
	if n < 0 {
		n = 0
	}
	if n > 0 && m.respSketch == nil {
		m.respSketch = NewSketch(0, 0)
		for _, r := range m.records {
			if r.Outcome == Committed {
				m.respSketch.Observe(r.Finish.Sub(r.Arrival))
			}
		}
	}
	if m.next > 0 {
		// Put the wrapped ring back in finish order, oldest first, so
		// the trim below keeps the newest and later Adds overwrite the
		// oldest.
		slices.Reverse(m.records[:m.next])
		slices.Reverse(m.records[m.next:])
		slices.Reverse(m.records)
		m.next = 0
	}
	m.maxRaw = n
	if n > 0 && len(m.records) > n {
		m.dropped += len(m.records) - n
		copy(m.records, m.records[len(m.records)-n:])
		m.records = m.records[:n]
	}
}

// RawRetained returns how many raw records are currently held.
func (m *Monitor) RawRetained() int { return len(m.records) }

// RawDropped returns how many processed records were evicted by the cap.
func (m *Monitor) RawDropped() int { return m.dropped }

// Reserve grows the record buffer to hold n transactions, so a loader
// that knows its workload size avoids incremental growth in the run.
// Under a raw-retention cap, the reservation clamps to the cap.
func (m *Monitor) Reserve(n int) {
	if m.maxRaw > 0 && n > m.maxRaw {
		n = m.maxRaw
	}
	if cap(m.records) >= n {
		return
	}
	records := make([]TxRecord, len(m.records), n)
	copy(records, m.records)
	m.records = records
}

// Add records one processed transaction: the streaming aggregates
// always, the response sketch when a cap made one, and the raw record
// subject to the retention cap. Under a cap the method allocates nothing
// in steady state (ring overwrite); an uncapped monitor grows the record
// slice as before.
func (m *Monitor) Add(r TxRecord) {
	m.processed++
	m.totalBlocked += r.Blocked
	m.blockedCount += r.BlockedCount
	m.restarts += r.Restarts
	m.messages += r.Messages
	if r.Outcome == Committed {
		m.committed++
		m.objects += r.Size
		resp := r.Finish.Sub(r.Arrival)
		m.totalResp += resp
		if m.respSketch != nil {
			m.respSketch.Observe(resp)
		}
	}
	if r.Finish > m.horizon {
		m.horizon = r.Finish
	}
	if m.maxRaw > 0 && len(m.records) >= m.maxRaw {
		m.records[m.next] = r
		m.next++
		if m.next == m.maxRaw {
			m.next = 0
		}
		m.dropped++
		return
	}
	m.records = append(m.records, r)
}

// SetHorizon overrides the observation window end (defaults to the last
// recorded finish time). Throughput normalizes by this window.
func (m *Monitor) SetHorizon(t sim.Time) { m.horizon = t }

// Records returns a copy of the retained records, ordered by
// transaction id. Under a raw-retention cap only the most recent cap
// records are held; RawDropped reports how many were evicted.
func (m *Monitor) Records() []TxRecord {
	out := make([]TxRecord, len(m.records))
	copy(out, m.records)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Processed returns the number of transactions that completed or were
// aborted.
func (m *Monitor) Processed() int { return m.processed }

// CommittedCount returns the number of transactions that met their
// deadline.
func (m *Monitor) CommittedCount() int { return m.committed }

// MissedCount returns the number of deadline-missing transactions.
func (m *Monitor) MissedCount() int { return m.processed - m.committed }

// MissedPct returns 100 × missed / processed, the paper's %missed
// (0 for an empty run).
func (m *Monitor) MissedPct() float64 {
	if m.processed == 0 {
		return 0
	}
	return 100 * float64(m.MissedCount()) / float64(m.processed)
}

// Throughput returns the normalized throughput: data objects accessed per
// second over successful (committed) transactions — the completion rate
// multiplied by transaction size, as the paper normalizes to account for
// bigger transactions doing more database work. A zero or unset horizon
// reports 0.
func (m *Monitor) Throughput() float64 {
	if m.horizon <= 0 {
		return 0
	}
	return float64(m.objects) / sim.Duration(m.horizon).Seconds()
}

// AvgBlocked returns the mean blocked interval across processed
// transactions (0 for an empty run).
func (m *Monitor) AvgBlocked() sim.Duration {
	if m.processed == 0 {
		return 0
	}
	return m.totalBlocked / sim.Duration(m.processed)
}

// AvgResponse returns the mean finish−arrival time over committed
// transactions (0 when none committed).
func (m *Monitor) AvgResponse() sim.Duration {
	if m.committed == 0 {
		return 0
	}
	return m.totalResp / sim.Duration(m.committed)
}

// ResponsePercentile returns the q-quantile (0 < q <= 1) of the
// finish−arrival time over committed transactions, using the
// nearest-rank method. Real-time systems care about the tail, not just
// the mean; p95/p99 response times quantify predictability.
//
// While every raw record is retained the answer is exact; once the
// retention cap has evicted records it comes from the streaming sketch
// instead, within one sketch bucket width of exact.
func (m *Monitor) ResponsePercentile(q float64) sim.Duration {
	if q <= 0 || q > 1 {
		return 0
	}
	if m.dropped > 0 {
		return m.respSketch.Quantile(q)
	}
	var resp []sim.Duration
	for _, r := range m.records {
		if r.Outcome == Committed {
			resp = append(resp, r.Finish.Sub(r.Arrival))
		}
	}
	if len(resp) == 0 {
		return 0
	}
	sort.Slice(resp, func(i, j int) bool { return resp[i] < resp[j] })
	rank := int(math.Ceil(q*float64(len(resp)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(resp) {
		rank = len(resp) - 1
	}
	return resp[rank]
}

// Restarts returns the total number of aborted-and-retried attempts.
func (m *Monitor) Restarts() int { return m.restarts }

// Messages returns the total message count across transactions.
func (m *Monitor) Messages() int { return m.messages }

// Summary is an aggregate snapshot convenient for tables.
type Summary struct {
	Processed  int
	Committed  int
	Missed     int
	MissedPct  float64
	Throughput float64 // objects/sec over committed transactions
	AvgBlocked sim.Duration
	AvgResp    sim.Duration
	Restarts   int
	// RespP50 and RespP99 are the median and 99th-percentile response
	// times over committed transactions: the tail/median ratio
	// measures predictability, the real-time property the ceiling
	// protocol is designed for.
	RespP50 sim.Duration
	RespP99 sim.Duration
	// CPUUtil is the mean processor utilization over the horizon
	// (averaged across sites in distributed runs); the runtime fills
	// it in.
	CPUUtil float64
	// IOUtil is the offered I/O load over the horizon (single-site
	// runs, whose I/O is a pure delay).
	IOUtil float64
}

// Summarize computes the aggregate snapshot.
func (m *Monitor) Summarize() Summary {
	return Summary{
		Processed:  m.Processed(),
		Committed:  m.CommittedCount(),
		Missed:     m.MissedCount(),
		MissedPct:  m.MissedPct(),
		Throughput: m.Throughput(),
		AvgBlocked: m.AvgBlocked(),
		AvgResp:    m.AvgResponse(),
		Restarts:   m.Restarts(),
		RespP50:    m.ResponsePercentile(0.5),
		RespP99:    m.ResponsePercentile(0.99),
	}
}

// Horizon returns the observation-window end used for normalization.
func (m *Monitor) Horizon() sim.Time { return m.horizon }

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("processed=%d committed=%d missed=%d (%.1f%%) thpt=%.1f obj/s blocked=%.1fms resp=%.1fms restarts=%d cpu=%.0f%%",
		s.Processed, s.Committed, s.Missed, s.MissedPct, s.Throughput,
		s.AvgBlocked.Millis(), s.AvgResp.Millis(), s.Restarts, 100*s.CPUUtil)
}

// NetReport aggregates the message-layer counters of a distributed run:
// how many inter-site messages were sent, how many reached a handler,
// and where the rest were lost. Fault-free runs show zeros in every
// loss column except DroppedNoHandler (which counts late replies to
// ports whose waiter already gave up); fault runs attribute each loss
// to its cause — endpoint site down, link cut by a partition, or the
// injector's random loss.
type NetReport struct {
	// Sent counts inter-site messages handed to the network.
	Sent int
	// Delivered counts inter-site messages dispatched to a registered
	// handler and synchronous hops that arrived; like Sent, it leaves
	// intra-site messages out.
	Delivered int
	// Aborted counts synchronous hops whose sender was aborted in
	// flight (a deadline miss): neither delivered nor lost. Without
	// duplicates, Sent = Delivered + Lost() + Aborted.
	Aborted int
	// DroppedNoHandler counts messages that arrived on a port with no
	// handler registered.
	DroppedNoHandler int
	// DroppedDown counts messages discarded because an endpoint site
	// was down at send or delivery time.
	DroppedDown int
	// DroppedCut counts messages discarded because the link was cut by
	// a partition.
	DroppedCut int
	// DroppedFault counts messages the fault injector dropped.
	DroppedFault int
	// Duplicated counts extra copies the fault injector delivered.
	Duplicated int
}

// Lost returns the total number of messages that never reached a
// handler.
func (n NetReport) Lost() int {
	return n.DroppedNoHandler + n.DroppedDown + n.DroppedCut + n.DroppedFault
}

// String renders the report on one line.
func (n NetReport) String() string {
	return fmt.Sprintf("sent=%d delivered=%d aborted=%d lost=%d (nohandler=%d down=%d cut=%d fault=%d) dup=%d",
		n.Sent, n.Delivered, n.Aborted, n.Lost(),
		n.DroppedNoHandler, n.DroppedDown, n.DroppedCut, n.DroppedFault, n.Duplicated)
}

// MeanStd returns the mean and standard deviation of xs; the experiment
// harness averages each metric over independent runs as the paper does
// (10 runs per point).
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
