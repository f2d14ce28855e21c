package metrics

import (
	"bytes"
	"fmt"
	"html/template"
	"io"
	"sort"
)

// The HTML report is a single self-contained page (no scripts, no
// external assets, no timestamps) summarizing a run's metrics and lock
// contention. Because every table is sorted and no ambient state is
// read, identical runs produce byte-identical reports.

type htmlReport struct {
	Title        string
	FinalTime    int64
	Samples      int
	Families     []htmlFamily
	Objects      []htmlObject
	Causes       []CauseCount
	Stacks       []StackSample
	Recovery     *htmlRecovery
	Profile      *Profile
	Timeline     []htmlTimelineRow
	TimelineOmit int // windows elided before the shown tail
}

type htmlTimelineRow struct {
	TimelineRow
	StartMs, EndMs       float64
	MeanMs, P50Ms, P99Ms float64
	LockP50Ms, LockP99Ms float64
	BarPct               int // throughput bar, relative to peak window
}

type htmlRecovery struct {
	RecoveryProfile
	DownMs, MaxDownMs float64
}

type htmlFamily struct {
	Name   string
	Type   string
	Help   string
	Series []htmlSeries
}

type htmlSeries struct {
	Labels string
	Value  string
}

type htmlObject struct {
	ObjectProfile
	WaitMs, HoldMs, MaxWaitMs, InversionMs float64
	BarPct                                 int
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; font-size: 0.9em; }
th { background: #f0f0f0; } td.l, th.l { text-align: left; }
.bar { background: #c33; height: 0.8em; display: inline-block; }
.stack { font-family: monospace; font-size: 0.85em; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p>virtual horizon: {{.FinalTime}} ticks &middot; {{.Samples}} samples</p>
{{if .Profile}}
<h2>Hot objects (top {{.Profile.TopK}} of {{.Profile.TotalObjects}} by waiting time)</h2>
<table>
<tr><th>site</th><th>obj</th><th>requests</th><th>blocks</th><th>wait ms</th><th>hold ms</th><th>max wait ms</th><th>inversion ms</th><th class="l">share</th></tr>
{{range .Objects}}<tr><td>{{.Site}}</td><td>{{.Obj}}</td><td>{{.Requests}}</td><td>{{.Blocks}}</td><td>{{printf "%.1f" .WaitMs}}</td><td>{{printf "%.1f" .HoldMs}}</td><td>{{printf "%.1f" .MaxWaitMs}}</td><td>{{printf "%.1f" .InversionMs}}</td><td class="l"><span class="bar" style="width: {{.BarPct}}px"></span></td></tr>
{{end}}</table>
{{if .Causes}}<h2>Abort / restart causes</h2>
<table><tr><th class="l">cause</th><th>count</th></tr>
{{range .Causes}}<tr><td class="l">{{.Cause}}</td><td>{{.Count}}</td></tr>
{{end}}</table>{{end}}
{{if .Recovery}}<h2>Crash recovery</h2>
<table><tr><th>crashes</th><th>recoveries</th><th>down ms</th><th>max down ms</th><th>redo votes</th><th>2PC retries</th><th>retries exhausted</th></tr>
<tr><td>{{.Recovery.Crashes}}</td><td>{{.Recovery.Recoveries}}</td><td>{{printf "%.1f" .Recovery.DownMs}}</td><td>{{printf "%.1f" .Recovery.MaxDownMs}}</td><td>{{.Recovery.RedoVotes}}</td><td>{{.Recovery.Retries}}</td><td>{{.Recovery.RetryExhausted}}</td></tr>
</table>{{end}}
{{if .Stacks}}<h2>Blocking chains (folded stacks, by waiting time)</h2>
<table><tr><th class="l">chain (holder &rarr; waiter)</th><th>wait ticks</th></tr>
{{range .Stacks}}<tr><td class="l stack">{{.Stack}}</td><td>{{.Ticks}}</td></tr>
{{end}}</table>{{end}}
{{end}}
{{if .Timeline}}<h2>Timeline</h2>
{{if .TimelineOmit}}<p>({{.TimelineOmit}} earlier windows elided; full history in the JSONL/CSV export)</p>{{end}}
<table>
<tr><th>win</th><th>start ms</th><th>end ms</th><th>done</th><th>commit</th><th>miss %</th><th>restarts</th><th>tput/s</th><th>mean ms</th><th>p50 ms</th><th>p99 ms</th><th>lock p50 ms</th><th>lock p99 ms</th><th>net lost</th><th>net dup</th><th>in flight</th><th class="l">load</th></tr>
{{range .Timeline}}<tr><td>{{.Window}}</td><td>{{printf "%.0f" .StartMs}}</td><td>{{printf "%.0f" .EndMs}}</td><td>{{.Processed}}</td><td>{{.Committed}}</td><td>{{printf "%.1f" .MissPct}}</td><td>{{.Restarts}}</td><td>{{printf "%.1f" .Throughput}}</td><td>{{printf "%.2f" .MeanMs}}</td><td>{{printf "%.2f" .P50Ms}}</td><td>{{printf "%.2f" .P99Ms}}</td><td>{{printf "%.2f" .LockP50Ms}}</td><td>{{printf "%.2f" .LockP99Ms}}</td><td>{{.NetLost}}</td><td>{{.NetDup}}</td><td>{{.InFlight}}</td><td class="l"><span class="bar" style="width: {{.BarPct}}px"></span></td></tr>
{{end}}</table>
{{end}}
<h2>Metric families</h2>
{{range .Families}}
<h3>{{.Name}} <small>({{.Type}})</small></h3>
<p>{{.Help}}</p>
<table><tr><th class="l">labels</th><th>value</th></tr>
{{range .Series}}<tr><td class="l">{{if .Labels}}{{.Labels}}{{else}}&mdash;{{end}}</td><td>{{.Value}}</td></tr>
{{end}}</table>
{{end}}
</body>
</html>
`))

// htmlTimelineMaxRows bounds the timeline table so long runs do not
// produce megabyte reports; the newest windows are shown.
const htmlTimelineMaxRows = 200

// WriteHTML renders the report of a run from its registry, lock profile
// and window rows, any of which may be nil or empty. The header's
// horizon and sample count come from the rows. A report with a
// registry lists its series' final values; one without shows the
// rows' per-window table instead.
func WriteHTML(w io.Writer, title string, reg *Registry, prof *Profile, rows []TimelineRow) error {
	rep := htmlReport{Title: title, Profile: prof, Samples: len(rows)}
	if len(rows) > 0 {
		rep.FinalTime = rows[len(rows)-1].End
	}
	if reg == nil && len(rows) > htmlTimelineMaxRows {
		rep.TimelineOmit = len(rows) - htmlTimelineMaxRows
		rows = rows[rep.TimelineOmit:]
	}
	if reg == nil && len(rows) > 0 {
		peak := 1.0
		for _, r := range rows {
			if r.Throughput > peak {
				peak = r.Throughput
			}
		}
		for _, r := range rows {
			rep.Timeline = append(rep.Timeline, htmlTimelineRow{
				TimelineRow: r,
				StartMs:     float64(r.Start) / 1000,
				EndMs:       float64(r.End) / 1000,
				MeanMs:      float64(r.MeanResp) / 1000,
				P50Ms:       float64(r.P50Resp) / 1000,
				P99Ms:       float64(r.P99Resp) / 1000,
				LockP50Ms:   float64(r.LockWaitP50) / 1000,
				LockP99Ms:   float64(r.LockWaitP99) / 1000,
				BarPct:      int(r.Throughput * 200 / peak),
			})
		}
	}
	if reg != nil {
		fams := make([]*family, len(reg.order))
		copy(fams, reg.order)
		sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
		for _, f := range fams {
			hf := htmlFamily{Name: f.name, Type: f.typ.String(), Help: f.help}
			sers := make([]*series, len(f.order))
			copy(sers, f.order)
			sort.Slice(sers, func(i, j int) bool { return sers[i].key < sers[j].key })
			for _, s := range sers {
				v := fmt.Sprintf("%d", s.val)
				if f.typ == histogramType {
					v = fmt.Sprintf("count=%d sum=%d", s.count, s.sum)
				}
				hf.Series = append(hf.Series, htmlSeries{Labels: s.key, Value: v})
			}
			rep.Families = append(rep.Families, hf)
		}
	}
	if prof != nil {
		maxWait := int64(1)
		for _, o := range prof.Objects {
			if o.WaitTicks > maxWait {
				maxWait = o.WaitTicks
			}
		}
		for _, o := range prof.Objects {
			rep.Objects = append(rep.Objects, htmlObject{
				ObjectProfile: o,
				WaitMs:        float64(o.WaitTicks) / 1000,
				HoldMs:        float64(o.HoldTicks) / 1000,
				MaxWaitMs:     float64(o.MaxWaitTicks) / 1000,
				InversionMs:   float64(o.InversionTicks) / 1000,
				BarPct:        int(o.WaitTicks * 200 / maxWait),
			})
		}
		rep.Causes = prof.Causes
		if prof.Recovery != (RecoveryProfile{}) {
			rep.Recovery = &htmlRecovery{
				RecoveryProfile: prof.Recovery,
				DownMs:          float64(prof.Recovery.DownTicks) / 1000,
				MaxDownMs:       float64(prof.Recovery.MaxDownTicks) / 1000,
			}
		}
		// Show the heaviest chains first, bounded so pathological runs
		// do not produce megabyte reports.
		stacks := make([]StackSample, len(prof.Stacks))
		copy(stacks, prof.Stacks)
		sort.Slice(stacks, func(i, j int) bool {
			if stacks[i].Ticks != stacks[j].Ticks {
				return stacks[i].Ticks > stacks[j].Ticks
			}
			return stacks[i].Stack < stacks[j].Stack
		})
		if len(stacks) > 50 {
			stacks = stacks[:50]
		}
		rep.Stacks = stacks
	}
	var b bytes.Buffer
	if err := reportTmpl.Execute(&b, rep); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}
