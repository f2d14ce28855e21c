package journal

// Fuzzing for the journal's one representation: records appended from
// arbitrary bytes must decode back exactly, hash like the record-array
// encoder the journal used to run at Hash time, and survive a JSONL
// round trip.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// referenceBinary is the canonical binary encoding written out record
// by record from a record slice, as the journal computed it when it
// kept records: the oracle the byte-keeping journal must match.
func referenceBinary(seed int64, configHash uint64, recs []Record) []byte {
	buf := []byte(binaryMagic)
	buf = binary.AppendVarint(buf, seed)
	buf = binary.AppendUvarint(buf, configHash)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		buf = binary.AppendVarint(buf, r.At)
		buf = append(buf, byte(r.Kind))
		buf = binary.AppendVarint(buf, int64(r.Site))
		buf = binary.AppendVarint(buf, r.Tx)
		buf = binary.AppendVarint(buf, int64(r.Obj))
		buf = binary.AppendVarint(buf, r.A)
		buf = binary.AppendVarint(buf, r.B)
		buf = binary.AppendUvarint(buf, uint64(len(r.Note)))
		buf = append(buf, r.Note...)
	}
	return buf
}

// fuzzRecords reads records from data: per record a kind byte (mapped
// onto the defined kinds), At, Tx, A and B as 8 bytes each, Site and
// Obj as 4 bytes each, a 2-byte note length (mod 1024) and the note,
// cut short where data ends. Notes are made valid UTF-8, as every note
// the simulator writes is, so the JSONL form can carry them.
func fuzzRecords(data []byte) []Record {
	var out []Record
	const fixed = 1 + 4*8 + 2*4 + 2
	for len(data) >= fixed {
		r := Record{Seq: uint64(len(out)), Kind: Kind(1 + int(data[0])%int(KQuorumRead))}
		le := binary.LittleEndian
		r.At = int64(le.Uint64(data[1:]))
		r.Tx = int64(le.Uint64(data[9:]))
		r.A = int64(le.Uint64(data[17:]))
		r.B = int64(le.Uint64(data[25:]))
		r.Site = int32(le.Uint32(data[33:]))
		r.Obj = int32(le.Uint32(data[37:]))
		n := min(int(le.Uint16(data[41:]))%1024, len(data)-fixed)
		r.Note = strings.ToValidUTF8(string(data[fixed:fixed+n]), "?")
		data = data[fixed+n:]
		out = append(out, r)
	}
	return out
}

// fuzzRecordBytes is fuzzRecords' input form of one record.
func fuzzRecordBytes(k Kind, at, tx, a, b int64, site, obj int32, note string) []byte {
	le := binary.LittleEndian
	buf := []byte{byte(k - 1)}
	for _, v := range []int64{at, tx, a, b} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = le.AppendUint32(buf, uint32(site))
	buf = le.AppendUint32(buf, uint32(obj))
	buf = le.AppendUint16(buf, uint16(len(note)))
	return append(buf, note...)
}

func FuzzJournalEncoding(f *testing.F) {
	f.Add(int64(0), "", []byte{})
	var every []byte
	for k := KSpawn; k <= KQuorumRead; k++ {
		every = append(every, fuzzRecordBytes(k, int64(k)*1000, int64(k), -1, int64(k)%3, 0, int32(k), k.String())...)
	}
	f.Add(int64(42), "proto=PCP size=8", every)
	var extreme []byte
	for _, v := range []int64{math.MinInt64, math.MaxInt64, -1, 0, 1 << 62} {
		extreme = append(extreme, fuzzRecordBytes(KCeiling, v, v, v, v, math.MinInt32, math.MaxInt32, "")...)
	}
	f.Add(int64(math.MinInt64), "extreme", extreme)
	f.Add(int64(-7), "long notes", append(fuzzRecordBytes(KSpawn, 1, 2, 3, 4, 5, 6, strings.Repeat("n", 1000)),
		fuzzRecordBytes(KMsgSend, 1, 2, 3, 4, 5, 6, "héllo \x00 <port>")...))
	f.Fuzz(func(t *testing.T, seed int64, config string, data []byte) {
		config = strings.ToValidUTF8(config, "?")
		recs := fuzzRecords(data)
		j := New(seed, config)
		for _, r := range recs {
			j.Append(r.At, r.Kind, r.Site, r.Tx, r.Obj, r.A, r.B, r.Note)
		}
		got := j.Records()
		if len(got) != len(recs) || j.Len() != len(recs) {
			t.Fatalf("Records() has %d records, Len() %d, appended %d", len(got), j.Len(), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d decoded as %+v, appended %+v", i, got[i], recs[i])
			}
		}
		want := referenceBinary(seed, j.ConfigHash(), recs)
		if j.Hash() != sha256.Sum256(want) {
			t.Fatal("Hash differs from the SHA-256 of the record-array encoding")
		}
		var bin bytes.Buffer
		if err := j.EncodeBinary(&bin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), want) {
			t.Fatal("EncodeBinary differs from the record-array encoding")
		}
		var jsonl bytes.Buffer
		if err := j.EncodeJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSONL(&jsonl)
		if err != nil {
			t.Fatalf("JSONL round trip: %v", err)
		}
		if !Equal(j, back) {
			t.Fatalf("JSONL round trip diverged: %s", Diff(j, back))
		}
	})
}
