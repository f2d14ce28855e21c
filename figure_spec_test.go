package rtlock

import (
	"os"
	"strings"
	"testing"

	"rtlock/internal/experiments"
)

// figuresOn evaluates the named figures in one sweep of p, on the base
// spec doc ("" keeps every family's built-in setting).
func figuresOn(t *testing.T, p experiments.Params, doc string, names ...string) []Figure {
	t.Helper()
	if doc != "" {
		s, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		p.Base = *s
	}
	sw := experiments.NewSweep(p)
	figs := make([]Figure, len(names))
	for i, name := range names {
		var err error
		if figs[i], err = sw.Figure(name); err != nil {
			t.Fatal(err)
		}
	}
	return figs
}

// scaledFamilies is every family at a quarter of its run length, two
// runs per cell.
func scaledFamilies() experiments.Params {
	p := experiments.DefaultParams()
	for _, s := range []*experiments.Schedule{&p.Single.Schedule, &p.Dist.Schedule, &p.SiteSweep.Schedule, &p.Faults.Schedule} {
		s.Scale(0.25, 2)
	}
	return p
}

// TestFigureOnSpec: a base spec equal to a family's built-in setting
// reproduces its figures byte for byte, and a base setting that a row
// does not vary moves the row while one that it varies does not.
func TestFigureOnSpec(t *testing.T) {
	p := scaledFamilies()
	sites, err := os.ReadFile("examples/specs/sitesweep.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		base  string
		names []string
	}{
		{`{"mode":"single"}`, []string{"fig2", "buffer"}},
		{`{"mode":"distributed"}`, []string{"fig4", "fig5", "fig6"}},
		{string(sites), []string{"sites-throughput", "sites-missed", "consistency-tax"}},
		{`{"mode":"distributed","workload":{"readOnlyFrac":0.5}}`, []string{"faultsweep"}},
	} {
		builtIn := figuresOn(t, p, "", tc.names...)
		onBase := figuresOn(t, p, tc.base, tc.names...)
		for i, name := range tc.names {
			if onBase[i].String() != builtIn[i].String() || onBase[i].CSV() != builtIn[i].CSV() {
				t.Errorf("%s on %s:\n%s\nwant the built-in setting's\n%s", name, tc.base, onBase[i], builtIn[i])
			}
		}
	}

	builtIn := figuresOn(t, p, "", "fig3", "buffer")
	buffered := figuresOn(t, p, `{"mode":"single","bufferPages":50}`, "fig3", "buffer")
	if buffered[0].CSV() == builtIn[0].CSV() {
		t.Errorf("fig3 on a 50-page buffer equals fig3 without one:\n%s", buffered[0])
	}
	// The buffer row sets the buffer at every x, x = 0 (no buffer)
	// included, so the base's buffer changes none of its points.
	for i, s := range buffered[1].Series {
		if want := builtIn[1].Series[i].Points[0]; s.Points[0] != want {
			t.Errorf("buffer %s at x=0 on a 50-page base = %+v, want the built-in %+v", s.Label, s.Points[0], want)
		}
	}
	if buffered[1].CSV() != builtIn[1].CSV() {
		t.Errorf("buffer on a 50-page base:\n%s\nwant\n%s", buffered[1], builtIn[1])
	}
}

// TestFigureBaseRejectedKeys: a base key that no figure cell takes is an
// error naming it, from Check and from the sweep alike, before any run.
func TestFigureBaseRejectedKeys(t *testing.T) {
	p := scaledFamilies()
	for _, tc := range []struct{ doc, figure, key string }{
		{`{"mode":"single","workload":{"count":20}}`, "fig2", "workload.count"},
		{`{"mode":"distributed","workload":{"seed":3}}`, "fig4", "workload.seed"},
		{`{"mode":"single","journal":true}`, "fig3", "journal"},
		{`{"mode":"distributed","metrics":true}`, "fig5", "metrics"},
		{`{"mode":"single","metricsIntervalMs":50}`, "buffer", "metricsIntervalMs"},
		{`{"mode":"distributed","timelineWindowMs":100}`, "sites-missed", "timelineWindowMs"},
		{`{"mode":"single","maxRawRecords":10}`, "dbsize", "maxRawRecords"},
		{`{"mode":"single","traceEvents":5}`, "recovery", "traceEvents"},
		{`{"mode":"distributed","recordHistory":true}`, "consistency", "recordHistory"},
		{`{"mode":"distributed","faults":{}}`, "faultsweep", "faults"},
		{`{"mode":"single"}`, "fig4", "fig4"},
		{`{"mode":"distributed"}`, "fig2", "fig2"},
	} {
		s, err := ParseSpec([]byte(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		q := p
		q.Base = *s
		checked := q.Check(tc.figure)
		_, swept := experiments.NewSweep(q).Figure(tc.figure)
		for _, err := range []error{checked, swept} {
			if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) && !strings.Contains(err.Error(), tc.key+" ") {
				t.Errorf("%s on %s: %v, want an error naming %q", tc.figure, tc.doc, err, tc.key)
			}
		}
	}
	// A fault plan reaches the cells of a row that does not generate one.
	s, err := ParseSpec([]byte(`{"mode":"distributed","faults":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	p.Base = *s
	if err := p.Check("fig4", "sites-missed"); err != nil {
		t.Errorf("a fault plan under fig4: %v", err)
	}
}
