package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil-registry handles must read zero")
	}
	if got := r.Snapshot(nil); got != nil || r.Samples() != 0 {
		t.Fatalf("nil registry snapshot %v, %d samples", got, r.Samples())
	}
	if Find[Counter](r, "c").Value() != 0 {
		t.Fatal("Find on a nil registry must return a no-op handle")
	}
	if got := r.Prometheus(); len(got) != 0 {
		t.Fatalf("nil registry exposition: %q", got)
	}
	if got := r.FinalString(); got != "" {
		t.Fatalf("nil registry FinalString: %q", got)
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up: ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Re-registration returns the same series.
	if r.Counter("reqs_total", "requests").Value() != 5 {
		t.Fatal("re-registered counter lost its value")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	a := r.Counter("c", "h", L("b", "2"), L("a", "1"))
	b := r.Counter("c", "h", L("a", "1"), L("b", "2"))
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("labels in different orders must name the same series; got %d", a.Value())
	}
	if !strings.Contains(string(r.Prometheus()), `c{a="1",b="2"} 2`) {
		t.Fatalf("labels not rendered canonically:\n%s", r.Prometheus())
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5065 {
		t.Fatalf("count=%d sum=%d, want 4/5065", h.Count(), h.Sum())
	}
	prom := string(r.Prometheus())
	for _, want := range []string{
		`lat_bucket{le="10"} 2`,   // 5, 10 (bounds inclusive)
		`lat_bucket{le="100"} 3`,  // + 50, cumulative
		`lat_bucket{le="1000"} 3`, // 5000 overflows
		`lat_bucket{le="+Inf"} 4`,
		`lat_sum 5065`,
		`lat_count 4`,
	} {
		if !strings.Contains(prom, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, prom)
		}
	}
}

func TestGoldenPrometheusExposition(t *testing.T) {
	r := New()
	// Registration order deliberately unsorted: exporters must sort.
	r.Gauge("zz_depth", "Ready-queue depth.").Set(3)
	r.Counter("aa_total", "Things counted.", L("kind", "x")).Add(2)
	r.Counter("aa_total", "Things counted.", L("kind", "w")).Add(7)
	h := r.Histogram("mid_ticks", "A duration.", []int64{10, 20})
	h.Observe(15)
	const want = `# HELP aa_total Things counted.
# TYPE aa_total counter
aa_total{kind="w"} 7
aa_total{kind="x"} 2
# HELP mid_ticks A duration.
# TYPE mid_ticks histogram
mid_ticks_bucket{le="10"} 0
mid_ticks_bucket{le="20"} 1
mid_ticks_bucket{le="+Inf"} 1
mid_ticks_sum 15
mid_ticks_count 1
# HELP zz_depth Ready-queue depth.
# TYPE zz_depth gauge
zz_depth 3
`
	if got := string(r.Prometheus()); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCSVSampling(t *testing.T) {
	r := New()
	c := r.Counter("c", "h")
	c.Inc()
	rows := []TimelineRow{{End: 100, Series: r.Snapshot(nil)}}
	// Series created after a snapshot read zero in its row, a new
	// series of an existing family included.
	g := r.Gauge("g", "h")
	g.Set(9)
	c.Add(2)
	r.Counter("c", "h", L("k", "v")).Add(4)
	rows = append(rows, TimelineRow{End: 200, Series: r.Snapshot(nil)})
	const want = "time_us,c,\"c{k=\"\"v\"\"}\",g\n100,1,0,0\n200,3,4,9\n"
	if got := string(CSV(r, rows)); got != want {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if r.Samples() != 2 {
		t.Fatalf("Samples() = %d, want 2", r.Samples())
	}
	// Snapshots read live values without perturbing them.
	if c.Value() != 3 || g.Value() != 9 {
		t.Errorf("live values perturbed: c=%d g=%d", c.Value(), g.Value())
	}
	// Without a registry the same rows render as timeline.csv.
	if got := string(CSV(nil, rows[:1])); got != timelineHeader+"\n0,0,100,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n" {
		t.Errorf("timeline CSV mismatch:\n%s", got)
	}
}

// TestFindDoesNotRegister: Find hands out the live handle of a series a
// layer registered and a no-op one otherwise, without adding a series.
func TestFindDoesNotRegister(t *testing.T) {
	r := New()
	r.Gauge("g", "h").Set(5)
	if got := Find[Gauge](r, "g").Value(); got != 5 {
		t.Errorf("Find(g) = %d, want the live 5", got)
	}
	Find[Counter](r, "missing").Inc()
	Find[Counter](r, "g", L("k", "v")).Inc()
	if got, want := string(r.Prometheus()), "# HELP g h\n# TYPE g gauge\ng 5\n"; got != want {
		t.Errorf("Find registered a series:\n%s", got)
	}
}

func TestCSVHistogramColumnsAndQuoting(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "h", []int64{10}, L("link", "a,b"))
	h.Observe(4)
	got := string(CSV(r, []TimelineRow{{End: 50, Series: r.Snapshot(nil)}}))
	wantHeader := `time_us,"lat{link=""a,b""}_count","lat{link=""a,b""}_sum"`
	if !strings.HasPrefix(got, wantHeader+"\n") {
		t.Fatalf("CSV header mismatch:\ngot  %q\nwant %q", strings.SplitN(got, "\n", 2)[0], wantHeader)
	}
	if !strings.Contains(got, "\n50,1,4\n") {
		t.Fatalf("CSV row mismatch:\n%s", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("c", "h", L("v", "a\"b\\c\nd")).Inc()
	prom := string(r.Prometheus())
	if !strings.Contains(prom, `c{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", prom)
	}
}

func TestHTMLReportRenders(t *testing.T) {
	r := New()
	r.Counter("c_total", "Things.", L("kind", "x")).Add(3)
	rows := []TimelineRow{{End: 1000, Series: r.Snapshot(nil)}}
	var b bytes.Buffer
	if err := WriteHTML(&b, "test report", r, FromJournal(nil, 0), rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<html", "test report", "c_total", "1000 ticks &middot; 1 samples"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	if strings.Contains(out, "<h2>Timeline</h2>") {
		t.Error("a registry report grew the per-window table")
	}
}

func TestHistogramSnapshotAndBounds(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "h", []int64{10, 20, 30})
	h.Observe(5)
	h.Observe(15)
	h.Observe(15)
	h.Observe(99) // above every bound: count/sum only
	if got := h.Bounds(); len(got) != 3 || got[2] != 30 {
		t.Fatalf("Bounds() = %v", got)
	}
	dst := make([]int64, 3)
	count, sum := h.Snapshot(dst)
	if count != 4 || sum != 134 {
		t.Errorf("Snapshot count/sum = %d/%d, want 4/134", count, sum)
	}
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 0 {
		t.Errorf("Snapshot buckets = %v, want [1 2 0]", dst)
	}
	var nilH Histogram
	if nilH.Bounds() != nil {
		t.Error("nil handle Bounds != nil")
	}
	if c, s := nilH.Snapshot(dst); c != 0 || s != 0 {
		t.Error("nil handle Snapshot != 0,0")
	}
}

func TestHTMLTimelineSection(t *testing.T) {
	rows := []TimelineRow{
		{Window: 0, Start: 0, End: 1_000_000, Processed: 10, Committed: 9, Missed: 1,
			Throughput: 9, MissPct: 10, MeanResp: 5000, P50Resp: 4000, P99Resp: 9000,
			LockWaitP50: 100, LockWaitP99: 900, InFlight: 2},
		{Window: 1, Start: 1_000_000, End: 2_000_000, Processed: 5, Committed: 5,
			Throughput: 5, MeanResp: 3000, P50Resp: 3000, P99Resp: 4000},
	}
	html := func(rows []TimelineRow) string {
		var b bytes.Buffer
		if err := WriteHTML(&b, "t", nil, nil, rows); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := html(rows)
	for _, want := range []string{"<h2>Timeline</h2>", "<td>9</td>", "tput/s", "2000000 ticks &middot; 2 samples"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline HTML missing %q", want)
		}
	}
	if plain := html(nil); strings.Contains(plain, "Timeline") {
		t.Error("WriteHTML grew a timeline section without rows")
	}
	// Over-long timelines elide the head, not the tail.
	long := make([]TimelineRow, htmlTimelineMaxRows+7)
	for i := range long {
		long[i].Window = i
		long[i].Throughput = 1
	}
	out = html(long)
	if !strings.Contains(out, "7 earlier windows elided") {
		t.Error("elision note missing")
	}
	if !strings.Contains(out, "<td>"+strconv.Itoa(len(long)-1)+"</td>") {
		t.Error("newest window missing from elided table")
	}
}
