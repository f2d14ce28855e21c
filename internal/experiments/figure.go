// Package experiments regenerates every figure in the paper's evaluation:
// Figures 2–3 (single-site throughput and deadline misses for the
// priority ceiling protocol C versus two-phase locking with (P) and
// without (L) priority), Figures 4–6 (the distributed comparison of the
// global and local ceiling approaches across transaction mixes and
// communication delays), plus the ablations the paper mentions but omits
// (database-size sweep) or raises as open questions (read/write versus
// exclusive lock semantics, basic inheritance versus ceiling).
// Each is a row of the table in table.go, evaluated by a Sweep.
package experiments

import (
	"fmt"
	"strings"
)

// Point is one measured value: an x coordinate, the mean y over the
// independent runs, and the standard deviation across runs.
type Point struct {
	X    float64
	Y    float64
	Std  float64
	Runs int
}

// Series is one curve in a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced table/figure: rows are x values, columns are
// series.
type Figure struct {
	Name   string // e.g. "fig2"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as an aligned text table with one row per x
// value and one column per series, mean±std.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.Name), f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Label)
	}
	b.WriteString("\n")
	for i := range f.xs() {
		fmt.Fprintf(&b, "%-12.4g", f.xs()[i])
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %11.3f±%-6.2f", s.Points[i].Y, s.Points[i].Std)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	return b.String()
}

// CSV renders the figure as comma-separated values: header row of series
// labels, then one row per x.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Label))
		b.WriteString(",")
		b.WriteString(csvEscape(s.Label + "_std"))
	}
	b.WriteString("\n")
	for i := range f.xs() {
		fmt.Fprintf(&b, "%g", f.xs()[i])
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, ",%g,%g", s.Points[i].Y, s.Points[i].Std)
			} else {
				b.WriteString(",,")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// xs returns the x axis (taken from the longest series).
func (f Figure) xs() []float64 {
	var xs []float64
	for _, s := range f.Series {
		if len(s.Points) > len(xs) {
			xs = xs[:0]
			for _, p := range s.Points {
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

// SeriesByLabel finds a series, for assertions in tests.
func (f Figure) SeriesByLabel(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
