package metrics

import "encoding/json"

// TimelineRow is one closed virtual-time window of the run's window
// ring (internal/timeline), the run's one time-series store. The
// kernel's tick closes a window at every multiple of the window width
// and once more when the run drains. It lives here — not in the
// timeline package — so the exporters (CSV, JSONL, HTML) can render the
// ring without metrics importing the collector.
//
// Durations are in ticks (1 tick = 1µs of virtual time). Window fields
// describe [Start, End); a transaction belongs to the window containing
// its finish time. Probe-derived fields (lock-wait quantiles, net
// counters, in-flight) are read at the boundary End, before any event
// at End: deltas since the previous boundary and readings at it. See
// DESIGN.md "Streaming telemetry".
type TimelineRow struct {
	Window    int   `json:"window"`    // zero-based window index
	Start     int64 `json:"start"`     // window start, ticks
	End       int64 `json:"end"`       // window end, ticks
	Processed int64 `json:"processed"` // transactions finished in the window
	Committed int64 `json:"committed"`
	Missed    int64 `json:"missed"`
	Restarts  int64 `json:"restarts"` // restarts of transactions finishing here

	Throughput float64 `json:"throughput"` // committed tx per virtual second
	MissPct    float64 `json:"miss_pct"`   // missed / processed × 100

	MeanResp int64 `json:"mean_resp"` // mean committed response, ticks
	P50Resp  int64 `json:"p50_resp"`  // sketch median, ticks
	P99Resp  int64 `json:"p99_resp"`  // sketch p99, ticks

	LockWaitP50 int64 `json:"lock_wait_p50"` // from lock_wait_ticks deltas
	LockWaitP99 int64 `json:"lock_wait_p99"`

	NetLost int64 `json:"net_lost"` // messages dropped in the window
	NetDup  int64 `json:"net_dup"`  // messages duplicated in the window

	InFlight int64 `json:"in_flight"` // txn_inflight gauge at window close

	// Series is the exported registry's Snapshot at End (nil unless the
	// run exports its registry); CSV renders it as metrics.csv.
	Series []int64 `json:"-"`
}

// JSONL renders one JSON object per row, newline-terminated: no
// clocks, no maps, fixed field order, so identical rows give
// byte-identical output. The schema is the JSON tags above; see README
// "Timeline export" for the field list.
func JSONL(rows []TimelineRow) []byte {
	var b []byte
	for i := range rows {
		line, _ := json.Marshal(&rows[i]) // numbers only, none NaN: cannot fail
		b = append(append(b, line...), '\n')
	}
	return b
}
