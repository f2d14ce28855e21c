package main

// Spans around the calls bench/ makes into the program. They stay in
// memory during the traced rep and are written out when it ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval; Parent is the ID of the span that caused
// it, -1 for the rep's root. Times are nanoseconds since the trace began.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
}

func newTracer(workload string, rep int) *tracer {
	return &tracer{workload: workload, rep: rep, t0: time.Now()}
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Workload: t.workload, Rep: t.rep, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := make(map[string]time.Duration)
	for i, s := range t.spans {
		byName[s.Name] += time.Duration(self[i])
	}
	return byName
}

func (t *tracer) write(dir string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "trace-"+t.workload+".json"), data)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
