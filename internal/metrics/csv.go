package metrics

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
)

// timelineHeader is the column order of timeline.csv, matching the
// JSONL field names.
const timelineHeader = "window,start,end,processed,committed,missed,restarts," +
	"throughput,miss_pct,mean_resp,p50_resp,p99_resp," +
	"lock_wait_p50,lock_wait_p99,net_lost,net_dup,in_flight"

// CSV renders the window ring as CSV: a header, then one line per row,
// oldest first. Given the registry whose snapshots the rows carry, it
// writes metrics.csv: the first column is the window's end in ticks,
// then one column per counter/gauge series and two per histogram series
// (its cumulative observation count and sum), sorted by column name; a
// series created after a row was closed reads zero there. Without a
// registry it writes timeline.csv, the rows' own columns. Either way the
// output is a pure function of its inputs.
func CSV(reg *Registry, rows []TimelineRow) []byte {
	header, cells := timelineHeader, appendTimelineCells
	if reg != nil {
		header, cells = reg.csvLayout()
	}
	b := append([]byte(header), '\n')
	for i := range rows {
		b = append(cells(b, &rows[i]), '\n')
	}
	return b
}

// appendTimelineCells appends one timeline.csv line, without its newline.
func appendTimelineCells(b []byte, r *TimelineRow) []byte {
	b = strconv.AppendInt(b, int64(r.Window), 10)
	for _, v := range [...]int64{r.Start, r.End, r.Processed, r.Committed, r.Missed, r.Restarts} {
		b = strconv.AppendInt(append(b, ','), v, 10)
	}
	b = strconv.AppendFloat(append(b, ','), r.Throughput, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), r.MissPct, 'g', -1, 64)
	for _, v := range [...]int64{r.MeanResp, r.P50Resp, r.P99Resp,
		r.LockWaitP50, r.LockWaitP99, r.NetLost, r.NetDup, r.InFlight} {
		b = strconv.AppendInt(append(b, ','), v, 10)
	}
	return b
}

// csvLayout returns metrics.csv's header and the appender of one line:
// the row's end, then each column's value at its snapshot offset.
func (r *Registry) csvLayout() (string, func([]byte, *TimelineRow) []byte) {
	type column struct {
		name string
		col  int
	}
	var cols []column
	for _, f := range r.order {
		for _, s := range f.order {
			base := f.name + s.key
			if f.typ == histogramType {
				cols = append(cols, column{base + "_count", s.col}, column{base + "_sum", s.col + 1})
				continue
			}
			cols = append(cols, column{base, s.col})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	var h bytes.Buffer
	h.WriteString("time_us")
	for _, c := range cols {
		h.WriteByte(',')
		h.WriteString(csvQuote(c.name))
	}
	return h.String(), func(b []byte, row *TimelineRow) []byte {
		b = strconv.AppendInt(b, row.End, 10)
		for _, c := range cols {
			var v int64
			if c.col < len(row.Series) {
				v = row.Series[c.col]
			}
			b = strconv.AppendInt(append(b, ','), v, 10)
		}
		return b
	}
}

// csvQuote quotes a column name when it contains CSV metacharacters
// (label renderings contain commas and quotes).
func csvQuote(s string) string {
	need := false
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '"' || s[i] == '\n' {
			need = true
			break
		}
	}
	if !need {
		return s
	}
	var b bytes.Buffer
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b.WriteByte('"')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// FinalString summarizes the registry's end state for logs: every
// counter/gauge series and histogram count/sum, one per line, sorted.
func (r *Registry) FinalString() string {
	if r == nil {
		return ""
	}
	var lines []string
	for _, f := range r.order {
		for _, s := range f.order {
			if f.typ == histogramType {
				lines = append(lines, fmt.Sprintf("%s%s count=%d sum=%d", f.name, s.key, s.count, s.sum))
				continue
			}
			lines = append(lines, fmt.Sprintf("%s%s %d", f.name, s.key, s.val))
		}
	}
	sort.Strings(lines)
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}
