// The timeline subcommand: run one configuration with windowed
// streaming telemetry and export the timeline — JSONL rows, CSV, and an
// HTML report with the per-window table. The run holds bounded memory
// regardless of transaction count (arrivals stream, raw records are
// capped, windows live in a ring), so this is the tool for
// million-transaction soaks. With -runs > 1 the exports are
// re-generated from independent executions and must be byte-identical.
package main

import (
	"flag"
	"fmt"

	"rtlock"
)

// runTimeline implements "rtdbsim timeline".
func runTimeline(args []string) error {
	fs := flag.NewFlagSet("rtdbsim timeline", flag.ContinueOnError)
	var sel specSelection
	sel.register(fs)
	var (
		out      = fs.String("out", "timeline-out", "directory for timeline.jsonl, timeline.csv, report.html")
		windowMs = fs.Float64("window", 0, "window width in virtual milliseconds (0 keeps the spec's value, or 1000)")
		maxWin   = fs.Int("maxwindows", 0, "retained windows in the ring (0 = default 4096)")
		maxRaw   = fs.Int("maxraw", defaultMaxRaw, "raw per-transaction records retained (0 = unlimited); unset keeps the spec's cap, or 4096")
		burst    = fs.Float64("burst", 0, "arrival burst factor (>1 enables the deterministic burst square wave)")
		burstOn  = fs.Float64("burston", 2000, "burst phase width in milliseconds")
		burstOff = fs.Float64("burstoff", 8000, "quiet phase width in milliseconds")
		runs     = fs.Int("runs", 1, "independent executions; with >1 every export must be byte-identical")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	s, err := sel.load()
	if err != nil {
		return err
	}
	if *windowMs > 0 {
		s.TimelineWindowMs = *windowMs
	}
	if s.TimelineWindowMs <= 0 {
		s.TimelineWindowMs = 1000
	}
	if *maxWin > 0 {
		s.TimelineMaxWindows = *maxWin
	}
	// An explicit -maxraw wins, 0 included; otherwise a spec's own cap
	// stays and an uncapped spec takes the flag's default.
	explicitRaw := false
	fs.Visit(func(f *flag.Flag) { explicitRaw = explicitRaw || f.Name == "maxraw" })
	if explicitRaw || s.MaxRawRecords <= 0 {
		s.MaxRawRecords = *maxRaw
	}
	if *burst > 0 {
		s.Workload.BurstFactor = *burst
		s.Workload.BurstOnMs = *burstOn
		s.Workload.BurstOffMs = *burstOff
	}
	title := specTitle(s)
	first, res, err := identicalRuns("timeline", *runs, s.Run, func(res *rtlock.Result) (bundle, error) {
		return timelineBundle(res, title)
	})
	if err != nil {
		return err
	}
	if err := first.write(*out); err != nil {
		return err
	}
	fmt.Println(res.Summary)
	fmt.Printf("timeline: %d windows (%d evicted), raw records retained/dropped %d/%d\n",
		len(res.Timeline), res.TimelineDropped, res.RawRetained, res.RawDropped)
	if *runs > 1 {
		fmt.Printf("timeline: %d runs byte-identical — deterministic\n", *runs)
	}
	return nil
}

// timelineBundle renders the three export formats from a completed run.
func timelineBundle(res *rtlock.Result, title string) (bundle, error) {
	if res.Timeline == nil {
		return nil, fmt.Errorf("timeline: run produced no timeline (window not set?)")
	}
	return bundle{
		{"timeline.jsonl", rtlock.TimelineJSONL(res.Timeline)},
		{"timeline.csv", rtlock.TimelineCSV(res.Timeline)},
		{"report.html", rtlock.HTMLReport("rtlock timeline — "+title, nil, nil, res.Timeline)},
	}, nil
}
