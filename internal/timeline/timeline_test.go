package timeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rtlock/internal/metrics"
	"rtlock/internal/sim"
)

func ms(n int64) sim.Duration { return sim.Duration(n) * sim.Millisecond }
func at(n int64) sim.Time     { return sim.Time(ms(n)) }

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Tx(at(5), true, ms(1), 0)
	c.Close(at(10))
	if c.Rows() != nil || c.Dropped() != 0 || c.Window() != 0 {
		t.Error("nil collector not inert")
	}
	if New(Config{}, nil) != nil {
		t.Error("zero-window New did not return nil")
	}
}

func TestWindowRollup(t *testing.T) {
	c := New(Config{Window: ms(10)}, nil)
	// Window 0: two commits, one miss with a restart.
	c.Tx(at(1), true, ms(2), 0)
	c.Tx(at(5), true, ms(4), 0)
	c.Tx(at(9), false, 0, 2)
	c.Close(at(10))
	// Window 1 left empty. Window 2: one commit.
	c.Close(at(20))
	c.Tx(at(25), true, ms(6), 1)
	c.Close(at(30))
	// The run drains mid-window 3: partial row.
	c.Close(at(35))
	rows := c.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	w0 := rows[0]
	if w0.Start != 0 || w0.End != int64(ms(10)) {
		t.Errorf("w0 bounds [%d,%d)", w0.Start, w0.End)
	}
	if w0.Processed != 3 || w0.Committed != 2 || w0.Missed != 1 || w0.Restarts != 2 {
		t.Errorf("w0 counts: %+v", w0)
	}
	if want := 100.0 / 3; w0.MissPct < want-0.01 || w0.MissPct > want+0.01 {
		t.Errorf("w0 MissPct = %v, want ~%v", w0.MissPct, want)
	}
	if want := 200.0; w0.Throughput != want { // 2 commits / 10ms
		t.Errorf("w0 Throughput = %v, want %v", w0.Throughput, want)
	}
	if w0.MeanResp != int64(ms(3)) {
		t.Errorf("w0 MeanResp = %d, want %d", w0.MeanResp, int64(ms(3)))
	}
	if w0.P50Resp <= 0 || w0.P99Resp < w0.P50Resp {
		t.Errorf("w0 quantiles p50=%d p99=%d", w0.P50Resp, w0.P99Resp)
	}
	w1 := rows[1]
	if w1.Processed != 0 || w1.Throughput != 0 || w1.MeanResp != 0 {
		t.Errorf("empty window not zero: %+v", w1)
	}
	if rows[2].Committed != 1 || rows[2].Restarts != 1 {
		t.Errorf("w2: %+v", rows[2])
	}
	w3 := rows[3]
	if w3.Start != int64(ms(30)) || w3.End != int64(ms(35)) {
		t.Errorf("partial window bounds [%d,%d)", w3.Start, w3.End)
	}
	for _, r := range rows {
		if r.Series != nil {
			t.Fatalf("window %d stored a snapshot of the private registry", r.Window)
		}
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	c := New(Config{Window: ms(1), MaxWindows: 4}, nil)
	for i := int64(0); i < 10; i++ {
		c.Tx(at(i), true, ms(1), 0)
		c.Close(at(i + 1))
	}
	rows := c.Rows()
	if len(rows) != 4 || c.Dropped() != 6 {
		t.Fatalf("rows=%d dropped=%d, want 4/6", len(rows), c.Dropped())
	}
	for i, r := range rows {
		if r.Window != 6+i {
			t.Errorf("rows[%d].Window = %d, want %d", i, r.Window, 6+i)
		}
	}
}

// TestProbeDeltasPerWindow: probe fields are read at the boundary, so
// activity after it (the later wait, the duplicate) lands in the next
// window, and each row carries the exported registry's snapshot.
func TestProbeDeltasPerWindow(t *testing.T) {
	reg := metrics.New()
	c := New(Config{Window: ms(10)}, reg)
	// The layers register the probe series the collector reads; it
	// registers none itself.
	wait := reg.Histogram("lock_wait_ticks", "", nil)
	drop := reg.Counter("net_msgs_dropped_total", "", metrics.L("reason", "fault"))
	dup := reg.Counter("net_msgs_duplicated_total", "")
	infl := reg.Gauge("txn_inflight", "")

	wait.Observe(int64(ms(2)))
	wait.Observe(int64(ms(2)))
	drop.Add(3)
	infl.Set(7)
	c.Tx(at(5), true, ms(1), 0)
	c.Close(at(10))
	first := reg.Snapshot(nil)

	wait.Observe(int64(ms(4)))
	dup.Add(2)
	infl.Set(1)
	c.Tx(at(12), true, ms(1), 0)
	c.Close(at(20))

	rows := c.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Window 0 owns the first two waits and the drops; its p50 and p99
	// are the bound containing 2ms.
	if rows[0].LockWaitP50 != rows[0].LockWaitP99 || rows[0].LockWaitP50 < int64(ms(2)) {
		t.Errorf("w0 lock quantiles p50=%d p99=%d", rows[0].LockWaitP50, rows[0].LockWaitP99)
	}
	if rows[0].NetLost != 3 || rows[0].NetDup != 0 || rows[0].InFlight != 7 {
		t.Errorf("w0 probe fields: %+v", rows[0])
	}
	// Window 1 owns only the delta since window 0 closed.
	if rows[1].LockWaitP50 < int64(ms(4)) {
		t.Errorf("w1 lock p50 = %d, want >= %d", rows[1].LockWaitP50, int64(ms(4)))
	}
	if rows[1].NetLost != 0 || rows[1].NetDup != 2 || rows[1].InFlight != 1 {
		t.Errorf("w1 probe fields: %+v", rows[1])
	}
	if !reflect.DeepEqual(rows[0].Series, first) || !reflect.DeepEqual(rows[1].Series, reg.Snapshot(nil)) {
		t.Errorf("row snapshots %v, %v; want %v, %v", rows[0].Series, rows[1].Series, first, reg.Snapshot(nil))
	}
	// Unregistered probes read zero and stay out of the export.
	if prom := string(reg.Prometheus()); strings.Contains(prom, `reason="down"`) {
		t.Errorf("collector registered a probe series:\n%s", prom)
	}
}

func TestExportsDeterministicAndParse(t *testing.T) {
	build := func() []Row {
		c := New(Config{Window: ms(10)}, nil)
		c.Tx(at(1), true, ms(2), 0)
		c.Tx(at(9), false, 0, 1)
		c.Close(at(10))
		c.Close(at(20))
		c.Tx(at(25), true, ms(6), 0)
		c.Close(at(30))
		return c.Rows()
	}
	jsonl := metrics.JSONL
	rows := build()
	j1, j2 := jsonl(rows), jsonl(build())
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL not byte-identical across identical runs")
	}
	lines := strings.Split(strings.TrimSuffix(string(j1), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	for _, ln := range lines {
		var r Row
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("JSONL line does not parse: %v\n%s", err, ln)
		}
	}
	var r0 Row
	_ = json.Unmarshal([]byte(lines[0]), &r0)
	if !reflect.DeepEqual(r0, rows[0]) {
		t.Errorf("JSONL round-trip mismatch:\n%+v\n%+v", r0, rows[0])
	}
	c1, c2 := metrics.CSV(nil, rows), metrics.CSV(nil, build())
	if !bytes.Equal(c1, c2) {
		t.Error("CSV not byte-identical across identical runs")
	}
	got := strings.Split(strings.TrimSuffix(string(c1), "\n"), "\n")
	header := strings.SplitN(string(metrics.CSV(nil, nil)), "\n", 2)[0]
	if got[0] != header || !strings.HasPrefix(header, "window,start,end,") {
		t.Errorf("CSV header = %q", got[0])
	}
	if len(got) != 4 {
		t.Fatalf("CSV lines = %d, want 4", len(got))
	}
	if wantCols := strings.Count(header, ",") + 1; strings.Count(got[1], ",")+1 != wantCols {
		t.Errorf("CSV row has %d cols, want %d", strings.Count(got[1], ",")+1, wantCols)
	}
	if len(jsonl(nil)) != 0 {
		t.Error("empty JSONL not empty")
	}
}

// TestHotPathAllocFree pins the bounded-memory claim: once the ring has
// wrapped, Tx and Close allocate nothing, registry snapshots included.
func TestHotPathAllocFree(t *testing.T) {
	reg := metrics.New()
	c := New(Config{Window: ms(1), MaxWindows: 64}, reg)
	wait := reg.Histogram("lock_wait_ticks", "", nil)
	i := int64(0)
	step := func() {
		wait.Observe(int64(ms(1)))
		c.Tx(at(i/2), i%3 != 0, ms(2), int(i%2))
		if i%2 == 1 {
			c.Close(at(i/2 + 1))
		}
		i++
	}
	for i < 200 {
		step()
	}
	// AllocsPerRun truncates its average, so every measured call runs
	// all six steps of the pattern: four commits, two misses, three
	// closes.
	cycle := func() {
		for range 6 {
			step()
		}
	}
	if allocs := testing.AllocsPerRun(400, cycle); allocs != 0 {
		t.Errorf("six Tx and three Close calls allocate %.2f times, want 0", allocs)
	}
	if c.Dropped() == 0 || len(c.Rows()[0].Series) == 0 {
		t.Fatal("ring never wrapped or stored no snapshot — the gate exercised nothing")
	}
}
