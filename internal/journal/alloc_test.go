package journal

import (
	"io"
	"testing"
)

// TestAppendZeroAlloc is the allocation-regression gate for the journal
// hot path: once the record buffer has grown, Append must not allocate.
// The journal is the busiest single data structure in a journaled run
// (every kernel, lock, and transaction event lands here), so even one
// allocation per record would dominate the profile.
func TestAppendZeroAlloc(t *testing.T) {
	j := New(7, "alloc-gate")
	const capRecords = 4096
	var at int64
	appendOne := func() {
		j.Append(at, KLockRequest, 0, at, 1, 0, 0, "")
		at++
		if j.Len() == capRecords {
			j.Reset(7, "alloc-gate")
		}
	}
	// Warm up: fill the buffer once; Reset keeps its capacity.
	for i := 0; i < capRecords; i++ {
		appendOne()
	}
	allocs := testing.AllocsPerRun(2*capRecords, appendOne)
	if allocs != 0 {
		t.Fatalf("Append allocated %.1f times per record; want 0", allocs)
	}
}

// countObserver is the cheapest possible Observer.
type countObserver struct{ n int }

func (c *countObserver) Observe(*Record) { c.n++ }

// TestTeeDiscardAppendZeroAlloc gates the audit-only path: with an
// observer teed in and records discarded, Append hands each record over
// from inside the journal and keeps nothing, so it never allocates.
func TestTeeDiscardAppendZeroAlloc(t *testing.T) {
	j := New(7, "alloc-gate")
	obs := &countObserver{}
	j.Tee(true, obs)
	var at int64
	allocs := testing.AllocsPerRun(4096, func() {
		j.Append(at, KLockRequest, 0, at, 1, 0, 0, "")
		at++
	})
	if allocs != 0 {
		t.Fatalf("teed, discarding Append allocated %.1f times per record; want 0", allocs)
	}
	if obs.n == 0 || len(j.Records()) != 0 {
		t.Fatalf("observer saw %d records, journal kept %d; want >0 and 0", obs.n, len(j.Records()))
	}
}

// TestEncodeBinarySteadyStateZeroAlloc gates the batched encoder: the
// encode buffer is retained across calls, so re-encoding an unchanged
// journal (the explorer hashes every schedule) must not allocate.
func TestEncodeBinarySteadyStateZeroAlloc(t *testing.T) {
	j := New(7, "alloc-gate")
	for i := int64(0); i < 512; i++ {
		j.Append(i, KOp, 0, i%8, int32(i%16), i, 0, "")
	}
	if err := j.EncodeBinary(io.Discard); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := j.EncodeBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeBinary allocated %.1f times per call after warmup; want 0", allocs)
	}
}

// TestHashZeroAlloc gates the outcome of an explored schedule: Hash
// writes the header into the room reserved in front of the encoded
// records and digests the bytes in place, so it never allocates.
func TestHashZeroAlloc(t *testing.T) {
	j := New(7, "alloc-gate")
	for i := int64(0); i < 512; i++ {
		j.Append(i, KOp, 0, i%8, int32(i%16), i, 0, "")
	}
	var sum [32]byte
	allocs := testing.AllocsPerRun(10, func() { sum = j.Hash() })
	if allocs != 0 {
		t.Fatalf("Hash allocated %.1f times per call; want 0", allocs)
	}
	if sum == ([32]byte{}) {
		t.Fatal("zero hash")
	}
}
