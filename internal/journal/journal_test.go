package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func sample() *Journal {
	j := New(42, "proto=PCP size=8")
	j.Append(0, KSpawn, 0, 1, 0, 0, 0, "tx-1")
	j.Append(10, KArrive, 0, 1, 0, 900, 0, "")
	j.Append(20, KLockRequest, 0, 1, 7, 2, 0, "")
	j.Append(20, KLockBlock, 0, 1, 7, 2, 1, "")
	j.Append(55, KLockGrant, 0, 1, 7, 2, 0, "")
	j.Append(90, KLockRelease, 0, 1, 7, 0, 0, "")
	j.Append(90, KCommit, 0, 1, 0, 0, 0, "")
	j.Append(95, KProcEnd, 0, 1, 0, 0, 0, "")
	return j
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Append(1, KCommit, 0, 1, 0, 0, 0, "") // must not panic
	if j.Len() != 0 || j.Records() != nil || j.Seed() != 0 || j.ConfigHash() != 0 {
		t.Fatal("nil journal accessors should return zero values")
	}
}

func TestAppendAssignsDenseSeq(t *testing.T) {
	j := sample()
	for i, r := range j.Records() {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// TestLenCountsRetainedRecords pins Len to the retained records on every
// path that writes them: appending, resetting and decoding.
func TestLenCountsRetainedRecords(t *testing.T) {
	check := func(stage string, j *Journal) {
		t.Helper()
		if j.Len() != len(j.Records()) {
			t.Fatalf("%s: Len() = %d, len(Records()) = %d", stage, j.Len(), len(j.Records()))
		}
	}
	j := sample()
	check("append", j)
	var buf bytes.Buffer
	if err := j.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	j.Reset(1, "reset")
	check("reset", j)
	j.Append(0, KCommit, 0, 1, 0, 0, 0, "")
	check("append after reset", j)
	got, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("decode", got)
	if got.Len() == 0 {
		t.Fatal("decoded journal reports no records")
	}
}

// seqRecorder is an Observer that copies what it sees.
type seqRecorder struct{ seen []Record }

func (s *seqRecorder) Observe(r *Record) { s.seen = append(s.seen, *r) }

// TestTeeObservesEveryAppend checks that observers see exactly the
// records a retaining journal keeps, and that a discarding journal keeps
// none while still counting them.
func TestTeeObservesEveryAppend(t *testing.T) {
	retained := sample()
	for _, discard := range []bool{false, true} {
		j := New(42, "proto=PCP size=8")
		obs := &seqRecorder{}
		j.Tee(discard, obs)
		for _, r := range retained.Records() {
			j.Append(r.At, r.Kind, r.Site, r.Tx, r.Obj, r.A, r.B, r.Note)
		}
		if len(obs.seen) != retained.Len() {
			t.Fatalf("discard=%t: observed %d records, want %d", discard, len(obs.seen), retained.Len())
		}
		for i, r := range retained.Records() {
			if obs.seen[i] != r {
				t.Fatalf("discard=%t: observed record %d = %+v, want %+v", discard, i, obs.seen[i], r)
			}
		}
		if j.Len() != retained.Len() {
			t.Fatalf("discard=%t: Len() = %d, want %d", discard, j.Len(), retained.Len())
		}
		if discard && len(j.Records()) != 0 {
			t.Fatalf("discarding journal kept %d records", len(j.Records()))
		}
		if !discard && !Equal(j, retained) {
			t.Fatalf("teed journal diverged: %s", Diff(j, retained))
		}
		j.Reset(42, "")
		j.Append(0, KCommit, 0, 1, 0, 0, 0, "")
		if len(obs.seen) != retained.Len() || len(j.Records()) != 1 {
			t.Fatalf("discard=%t: Reset left the tee attached", discard)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	j := sample()
	var buf bytes.Buffer
	if err := j.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(j, got) {
		t.Fatalf("round trip diverged: %s", Diff(j, got))
	}
	// Re-encoding the decoded journal must reproduce the bytes.
	var buf2 bytes.Buffer
	if err := got.EncodeJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSONL encoding is not byte-stable across a round trip")
	}
}

func TestBinaryAndHashStable(t *testing.T) {
	a, b := sample(), sample()
	var ba, bb bytes.Buffer
	if err := a.EncodeBinary(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.EncodeBinary(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("identical journals encode to different bytes")
	}
	if a.Hash() != b.Hash() || a.HashString() != b.HashString() {
		t.Fatal("identical journals hash differently")
	}
	// Any mutation must change the hash.
	c := sample()
	c.Append(100, KOp, 0, 2, 3, 1, 0, "")
	if a.Hash() == c.Hash() {
		t.Fatal("extra record did not change the hash")
	}
	d := New(43, "proto=PCP size=8")
	if a.Hash() == d.Hash() {
		t.Fatal("different seed did not change the hash")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := sample(), sample()
	if !Equal(a, b) || Diff(a, b) != "" {
		t.Fatal("identical journals reported unequal")
	}
	// The journal holds no records to mutate: rebuild b with record 3
	// changed.
	b = New(a.Seed(), a.Config())
	for i, r := range a.Records() {
		if i == 3 {
			r.A = 99
		}
		b.Append(r.At, r.Kind, r.Site, r.Tx, r.Obj, r.A, r.B, r.Note)
	}
	if Equal(a, b) {
		t.Fatal("mutated journal reported equal")
	}
	if d := Diff(a, b); !strings.Contains(d, "record 3") {
		t.Fatalf("diff did not locate divergence: %q", d)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(1); k <= KCeiling; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d name %q did not round trip", k, name)
		}
	}
	if _, ok := KindFromString("nonsense"); ok {
		t.Fatal("bogus kind name resolved")
	}
}

func TestDecodeJSONLRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json\n",
		`{"v":2,"seed":1,"config":"","confighash":"0","records":0}` + "\n",
		`{"v":1,"seed":1,"config":"","confighash":"0","records":5}` + "\n", // count mismatch
		`{"v":1,"seed":1,"config":"","confighash":"0","records":1}` + "\n" +
			`{"seq":0,"at":1,"kind":"bogus","site":0,"tx":1,"obj":0,"a":0,"b":0}` + "\n",
	}
	for i, c := range cases {
		if _, err := DecodeJSONL(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// TestDecodeJSONLRejectsSeqOutOfPlace: a record's seq is implied by its
// position, so a gap or a repeat is an error naming the line.
func TestDecodeJSONLRejectsSeqOutOfPlace(t *testing.T) {
	hdr := `{"v":1,"seed":1,"config":"","confighash":"0","records":2}` + "\n"
	rec := func(seq int) string {
		return fmt.Sprintf(`{"seq":%d,"at":1,"kind":"commit","site":0,"tx":1,"obj":0,"a":0,"b":0}`+"\n", seq)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"gap", hdr + rec(0) + rec(2), "line 3: seq 2, want 1"},
		{"repeat", hdr + rec(0) + rec(0), "line 3: seq 0, want 1"},
		{"first", hdr + rec(1) + rec(2), "line 2: seq 1, want 0"},
	} {
		_, err := DecodeJSONL(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeJSONL(strings.NewReader(hdr + rec(0) + rec(1))); err != nil {
		t.Fatalf("in-place seqs: %v", err)
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	j := sample()
	var buf bytes.Buffer
	if err := j.EncodeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	// The block→grant pair must have produced a duration event.
	foundX := false
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			foundX = true
		}
	}
	if !foundX {
		t.Fatal("no duration events in chrome trace")
	}
}

func TestConfigHashDependsOnConfig(t *testing.T) {
	a := New(1, "alpha")
	b := New(1, "beta")
	if a.ConfigHash() == b.ConfigHash() {
		t.Fatal("different configs hashed equal")
	}
}
