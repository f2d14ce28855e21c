// Package journal is the deterministic replay journal: a compact,
// append-only record of every kernel-level event a simulation run emits
// (scheduling, lock requests/grants/blocks, inheritance, ceiling
// changes, aborts and restarts, 2PC votes and decisions, message
// traffic). A journal is keyed by (seed, config hash); the canonical
// encodings are byte-stable, so byte-identity of two journals for the
// same key IS the determinism proof, and the streaming auditors in
// internal/audit consume the record sequence to verify protocol
// invariants.
//
// The package is a dependency-free leaf: timestamps are raw int64
// simulation ticks (1 tick = 1µs, matching internal/sim), so every
// layer — sim, core, netsim, dist, txn, stats — can import it without
// cycles.
//
// A Journal is not safe for concurrent use. That is by construction:
// each simulation run is single-threaded (the kernel hands control to
// one process at a time), and each run owns its own journal.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Kind identifies the event class of a Record. Values are part of the
// canonical encoding; never renumber existing kinds.
type Kind uint8

// Event kinds. The A and B payload fields are kind-specific; the table
// below documents their meaning (0 when unused).
const (
	// KSpawn: process creation. Tx = pid, Note = process name.
	KSpawn Kind = 1
	// KProcEnd: process termination. Tx = pid.
	KProcEnd Kind = 2
	// KArrive: a transaction attempt begins. Tx = transaction id,
	// A = deadline (ticks), B = attempt number (0 = first).
	KArrive Kind = 3
	// KRegister: transaction registered with a lock manager (PCP
	// ceilings recomputed). Tx = transaction id.
	KRegister Kind = 4
	// KUnregister: transaction left the lock manager. Tx = id.
	KUnregister Kind = 5
	// KLockRequest: lock requested. Tx = requester, Obj = object,
	// A = mode (1 = read, 2 = write).
	KLockRequest Kind = 6
	// KLockGrant: lock granted. Tx = requester, Obj = object,
	// A = mode.
	KLockGrant Kind = 7
	// KLockBlock: requester blocked. Tx = requester, Obj = object,
	// A = blamed (blocking) transaction id or -1 when blocked on a
	// ceiling with no identified holder, B = 1 when the block is a
	// ceiling block (PCP), 0 for a direct conflict.
	KLockBlock Kind = 8
	// KBlame: a parked waiter's blame edge moved to a new holder
	// (re-blame after a partial release). Tx = waiter, Obj = object,
	// A = new blamed id or -1 when the edge cleared.
	KBlame Kind = 9
	// KLockRelease: one object released at transaction end.
	// Tx = holder, Obj = object.
	KLockRelease Kind = 10
	// KInherit: effective priority change (inheritance or restoration).
	// Tx = transaction, A = new effective deadline, B = new effective
	// tie-break id.
	KInherit Kind = 11
	// KWound: holder wounded by a higher-priority requester.
	// Tx = victim, A = aggressor id.
	KWound Kind = 12
	// KRestart: attempt aborted, transaction will retry.
	// Tx = transaction, A = attempt number that failed.
	KRestart Kind = 13
	// KCommit: transaction committed. Tx = transaction.
	KCommit Kind = 14
	// KDeadlineMiss: transaction aborted at its deadline. Tx = id.
	KDeadlineMiss Kind = 15
	// KOp: one data operation performed (after lock grant).
	// Tx = transaction, Obj = object, A = mode.
	KOp Kind = 16
	// KCPUDispatch: a request starts (or resumes) on the processor.
	// Tx = pid, A = remaining service (ticks).
	KCPUDispatch Kind = 17
	// KCPUPreempt: the running request is preempted. Tx = pid,
	// A = remaining service (ticks).
	KCPUPreempt Kind = 18
	// KMsgSend: message sent. Site = sender, A = destination site,
	// Note = port.
	KMsgSend Kind = 19
	// KMsgRecv: message delivered. Site = destination, A = sender
	// site, Note = port.
	KMsgRecv Kind = 20
	// KTwoPCPrepare: coordinator sends prepare. Tx = transaction,
	// Site = coordinator, A = participant site.
	KTwoPCPrepare Kind = 21
	// KTwoPCVote: participant votes. Tx = transaction,
	// Site = participant, A = 1 commit / 0 abort.
	KTwoPCVote Kind = 22
	// KTwoPCDecision: decision at a site. Tx = transaction,
	// Site = deciding/receiving site, A = 1 commit / 0 abort.
	KTwoPCDecision Kind = 23
	// KInstall: an update installed at a replica (local-ceiling
	// replication). Tx = transaction, Site = replica, Obj = object.
	KInstall Kind = 24
	// KInstallDrop: an install message gave up (timeout/site down).
	// Tx = transaction, Site = replica, Obj = object.
	KInstallDrop Kind = 25
	// KCeiling: the system ceiling at a site changed. Site = site,
	// A = new ceiling deadline, B = new ceiling tie-break id
	// (MaxInt64 values mean "no ceiling").
	KCeiling Kind = 26
	// KSiteCrash: a site crashed (volatile state lost, WAL survives).
	// Site = crashed site, A = scheduled recovery time in ticks
	// (-1 when the site never recovers within the plan).
	KSiteCrash Kind = 27
	// KSiteRecover: a crashed site came back up. Site = site.
	KSiteRecover Kind = 28
	// KPartition: a symmetric network partition started. A = bitmask
	// of the sites in group A (sites must be < 64); everything else is
	// group B.
	KPartition Kind = 29
	// KHeal: a partition healed. A = the bitmask it was opened with.
	KHeal Kind = 30
	// KMsgDrop: a message was lost. Site = intended destination,
	// A = sender site, B = reason (1 = destination down, 2 = link cut
	// by a partition, 3 = injected fault), Note = port.
	KMsgDrop Kind = 31
	// KMsgDup: a message was duplicated by the fault injector.
	// Site = sender, A = destination site, B = total delivered copies,
	// Note = port.
	KMsgDup Kind = 32
	// KFailover: a transaction registered with its home site's
	// failover ceiling manager because the global manager's site was
	// down. Tx = transaction, Site = home site.
	KFailover Kind = 33
	// KResync: global ceiling manager state reconciled with a fault.
	// Site = GCM site, A = number of registrations purged,
	// B = the crashed/recovered site, Note = "evict" (a participant
	// site crashed) or "resync" (the GCM site itself recovered).
	KResync Kind = 34
	// KRetry: a bounded retry on a synchronous fault path (2PC
	// prepare re-send or decision resolution). Tx = transaction,
	// Site = retrying site, A = attempt number, Note = phase.
	KRetry Kind = 35
	// KWALRedo: recovery replayed the write-ahead log. Site = site,
	// A = number of pending (undecided) votes restored.
	KWALRedo Kind = 36
	// KChoice: a schedule-exploration chooser overrode a scheduling
	// decision point. A = decision point kind (sim.ChoicePoint), B =
	// alternative index picked (never 0: canonical picks are not
	// recorded, so a chooser that always picks canonically leaves the
	// journal byte-identical to a chooser-less run). Note = point name.
	KChoice Kind = 37
	// KFaultCrash: fault-space exploration chose to crash a site (the
	// standard KSiteCrash sequence follows immediately). Site = crashed
	// site, A = scheduled recovery time in ticks (-1 = never). Emitted
	// identically when a chosen fault plan is replayed without a
	// chooser, so counterexample and plan replay stay byte-identical.
	KFaultCrash Kind = 38
	// KFaultFate: fault-space exploration chose a message fate.
	// Site = sender, Tx = inter-site message ordinal (the injector's
	// consult counter), A = destination site, B = fate (1 = drop,
	// 2 = duplicate).
	KFaultFate Kind = 39
	// KFaultCut: fault-space exploration chose to partition one site
	// away from the rest (KPartition/KHeal pairs follow). Site =
	// isolated site, A = partition bitmask, B = scheduled heal time in
	// ticks (-1 = never).
	KFaultCut Kind = 40
	// KRetryExhausted: a bounded retry loop ran out of attempts without
	// resolution; the caller degrades (presumed abort / in-doubt until
	// recovery) instead of spinning. Tx = transaction, Site = retrying
	// site, A = attempts consumed, Note = phase ("prepare"/"resolve").
	KRetryExhausted Kind = 41
	// KPlacement: a run-level placement announcement emitted once at
	// load time. A = placement policy (place.Policy), B = read quorum
	// R in the low 32 bits and write quorum W in the high 32 bits (0
	// for non-quorum policies), Note = the canonical placement string,
	// suffixed with "; serializability waived" for the uncoordinated
	// primary-only baseline.
	KPlacement Kind = 42
	// KQuorumWrite: a write quorum round completed. Tx = writer,
	// Obj = object, Site = coordinating primary, A = the committed
	// version sequence number, B = acks collected (>= W).
	KQuorumWrite Kind = 43
	// KQuorumRead: a read quorum round completed. Tx = reader,
	// Obj = object, Site = coordinating primary, A = the highest
	// version sequence number observed across the quorum, B = replies
	// collected (>= R).
	KQuorumRead Kind = 44
)

var kindNames = map[Kind]string{
	KSpawn:          "spawn",
	KProcEnd:        "procend",
	KArrive:         "arrive",
	KRegister:       "register",
	KUnregister:     "unregister",
	KLockRequest:    "lockreq",
	KLockGrant:      "lockgrant",
	KLockBlock:      "lockblock",
	KBlame:          "blame",
	KLockRelease:    "lockrel",
	KInherit:        "inherit",
	KWound:          "wound",
	KRestart:        "restart",
	KCommit:         "commit",
	KDeadlineMiss:   "miss",
	KOp:             "op",
	KCPUDispatch:    "dispatch",
	KCPUPreempt:     "preempt",
	KMsgSend:        "send",
	KMsgRecv:        "recv",
	KTwoPCPrepare:   "prepare",
	KTwoPCVote:      "vote",
	KTwoPCDecision:  "decision",
	KInstall:        "install",
	KInstallDrop:    "installdrop",
	KCeiling:        "ceiling",
	KSiteCrash:      "sitecrash",
	KSiteRecover:    "siterecover",
	KPartition:      "partition",
	KHeal:           "heal",
	KMsgDrop:        "msgdrop",
	KMsgDup:         "msgdup",
	KFailover:       "failover",
	KResync:         "resync",
	KRetry:          "retry",
	KWALRedo:        "walredo",
	KChoice:         "choice",
	KFaultCrash:     "faultcrash",
	KFaultFate:      "faultfate",
	KFaultCut:       "faultcut",
	KRetryExhausted: "retryexhausted",
	KPlacement:      "placement",
	KQuorumWrite:    "quorumwrite",
	KQuorumRead:     "quorumread",
}

var kindValues = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the canonical lower-case name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString maps a canonical name back to its Kind.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindValues[s]
	return k, ok
}

// Record is one journal entry. Seq is assigned by Append and is dense
// (0, 1, 2, ...); At is the virtual time in ticks. Site/Tx/Obj identify
// the actors (0 / -1 style sentinels per kind); A and B carry
// kind-specific payloads documented on the Kind constants.
type Record struct {
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at"`
	Kind Kind   `json:"-"`
	Site int32  `json:"site"`
	Tx   int64  `json:"tx"`
	Obj  int32  `json:"obj"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	Note string `json:"note,omitempty"`
}

// jsonRecord is Record with the kind spelled out, giving the JSONL form
// a fixed field order via struct-order marshaling.
type jsonRecord struct {
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at"`
	Kind string `json:"kind"`
	Site int32  `json:"site"`
	Tx   int64  `json:"tx"`
	Obj  int32  `json:"obj"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	Note string `json:"note,omitempty"`
}

// Observer consumes records as they are appended, in journal order.
// The record pointer is valid only for the duration of the call (the
// journal reuses it for the next record), so an observer that keeps a
// record must copy it.
type Observer interface {
	Observe(r *Record)
}

// Journal accumulates the records of one simulation run, keyed by the
// run's seed and a canonical configuration string. It keeps no record
// structs: Append encodes each retained record into buf in the canonical
// binary form, so hashing and binary export read bytes already in memory
// and every other reader decodes on demand through Each. Observers
// attached with Tee see every record at Append; a discarding journal
// keeps none, so a run that is only audited holds no per-record state.
type Journal struct {
	seed   int64
	config string
	n      int // records appended since New or Reset
	kept   int // records encoded into buf

	// cur holds the record being appended: observers get a pointer into
	// the journal rather than into Append's frame, which would escape
	// and allocate once per record.
	cur     Record
	obs     []Observer
	discard bool

	// buf is headerRoom bytes reserved for the encoding's header, then
	// the body: the encoded records. Hash and EncodeBinary write the
	// header right-aligned into the room, so the whole encoding is one
	// contiguous slice and needs no second pass. buf is empty until the
	// first retained record or encoding, and Reset keeps its capacity.
	buf []byte
}

// headerRoom bounds the encoded header: the magic, then the seed, the
// config hash and the record count as varints of at most 10 bytes each.
const headerRoom = len(binaryMagic) + 3*binary.MaxVarintLen64

// maxFixed bounds a record's encoding less its note bytes: the kind
// byte and seven varints.
const maxFixed = 1 + 7*binary.MaxVarintLen64

// New returns an empty journal for the given seed and canonical config
// string. The config string should be a stable rendering of every
// parameter that shapes the run (protocol, sizes, rates, ...).
func New(seed int64, config string) *Journal {
	return &Journal{seed: seed, config: config}
}

// Seed returns the run seed the journal is keyed by.
func (j *Journal) Seed() int64 {
	if j == nil {
		return 0
	}
	return j.seed
}

// Config returns the canonical config string.
func (j *Journal) Config() string {
	if j == nil {
		return ""
	}
	return j.config
}

// ConfigHash returns the FNV-64a hash of the config string; together
// with the seed it keys the journal. The hash is computed inline
// (identical constants and byte order to hash/fnv) so the encode path,
// which rehashes the config on every call, stays allocation-free.
func (j *Journal) ConfigHash() uint64 {
	if j == nil {
		return 0
	}
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(j.config); i++ {
		h ^= uint64(j.config[i])
		h *= fnvPrime64
	}
	return h
}

// Tee attaches observers that see every later Append; with discard the
// journal stops retaining records, so Records stays empty while Len
// still counts them. Attach observers before the first Append: they
// never see records already written.
func (j *Journal) Tee(discard bool, obs ...Observer) {
	j.discard = discard
	j.obs = append(j.obs, obs...)
}

// Reset rekeys the journal, drops its records and detaches its
// observers while keeping the encoding buffer, so one journal can be
// recycled across many runs (the schedule explorer executes hundreds
// per exploration).
func (j *Journal) Reset(seed int64, config string) {
	if j == nil {
		return
	}
	j.seed = seed
	j.config = config
	j.buf = j.buf[:0]
	j.n, j.kept = 0, 0
	j.cur = Record{}
	clear(j.obs)
	j.obs, j.discard = j.obs[:0], false
}

// Append writes the next record into cur, hands it to every observer
// and, unless the journal discards, encodes it onto the body. It is
// safe to call on a nil journal (a no-op), so emission sites need no
// nil checks.
func (j *Journal) Append(at int64, kind Kind, site int32, tx int64, obj int32, a, b int64, note string) {
	if j == nil {
		return
	}
	// Field by field: assigning a whole Record literal copies it through
	// the runtime's write-barrier-aware move, which costs more than the
	// rest of Append.
	r := &j.cur
	r.Seq, r.At, r.Kind, r.Site, r.Tx, r.Obj, r.A, r.B, r.Note = uint64(j.n), at, kind, site, tx, obj, a, b, note
	j.n++
	for _, o := range j.obs {
		o.Observe(r)
	}
	if !j.discard {
		j.encode(r)
	}
}

// encode appends r's canonical encoding to the body: At, the kind byte,
// Site, Tx, Obj, A and B as varints, then the note as a uvarint length
// and its bytes.
func (j *Journal) encode(r *Record) {
	j.room()
	b := slices.Grow(j.buf, maxFixed+len(r.Note))
	p := len(b)
	b = b[:p+maxFixed]
	p += binary.PutVarint(b[p:], r.At)
	b[p] = byte(r.Kind)
	p++
	p += binary.PutVarint(b[p:], int64(r.Site))
	p += binary.PutVarint(b[p:], r.Tx)
	p += binary.PutVarint(b[p:], int64(r.Obj))
	p += binary.PutVarint(b[p:], r.A)
	p += binary.PutVarint(b[p:], r.B)
	p += binary.PutUvarint(b[p:], uint64(len(r.Note)))
	j.buf = append(b[:p], r.Note...)
	j.kept++
}

// room reserves the header room at the front of an empty buffer.
func (j *Journal) room() {
	if len(j.buf) == 0 {
		j.buf = append(j.buf, make([]byte, headerRoom)...)
	}
}

// body returns the encoded records.
func (j *Journal) body() []byte {
	if j == nil || len(j.buf) == 0 {
		return nil
	}
	return j.buf[headerRoom:]
}

// Each decodes the retained records in order and calls fn with each,
// Seq set to its position. The pointer is valid only for the duration
// of the call, as for an Observer; a nil journal has no records.
func (j *Journal) Each(fn func(r *Record)) {
	body := j.body()
	var r Record
	for p, seq := 0, uint64(0); p < len(body); seq++ {
		r.Seq = seq
		var n int
		r.At, n = binary.Varint(body[p:])
		p += n
		r.Kind = Kind(body[p])
		p++
		var v int64
		v, n = binary.Varint(body[p:])
		r.Site = int32(v)
		p += n
		r.Tx, n = binary.Varint(body[p:])
		p += n
		v, n = binary.Varint(body[p:])
		r.Obj = int32(v)
		p += n
		r.A, n = binary.Varint(body[p:])
		p += n
		r.B, n = binary.Varint(body[p:])
		p += n
		l, n := binary.Uvarint(body[p:])
		p += n
		r.Note = string(body[p : p+int(l)])
		p += int(l)
		fn(&r)
	}
}

// Len returns the number of records appended, retained or not.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.n
}

// Records decodes the retained records into a new slice, nil when there
// are none. Readers that need one pass should use Each instead.
func (j *Journal) Records() []Record {
	n := j.retained()
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	j.Each(func(r *Record) { out = append(out, *r) })
	return out
}

// binaryMagic opens the canonical binary encoding.
const binaryMagic = "RTJ1"

// EncodeBinary writes the canonical binary form: a fixed magic,
// the (seed, config hash, record count) key, then each record as
// varint-packed fields. The encoding is byte-stable: the same record
// sequence always produces the same bytes.
func (j *Journal) EncodeBinary(w io.Writer) error {
	_, err := w.Write(j.encoding())
	return err
}

// encoding writes the header into the room in front of the body and
// returns header and body as one slice.
func (j *Journal) encoding() []byte {
	var hdr [headerRoom]byte
	h := append(hdr[:0], binaryMagic...)
	h = binary.AppendVarint(h, j.seed)
	h = binary.AppendUvarint(h, j.ConfigHash())
	h = binary.AppendUvarint(h, uint64(j.kept))
	j.room()
	start := headerRoom - len(h)
	copy(j.buf[start:], h)
	return j.buf[start:]
}

// Hash returns the SHA-256 digest of the canonical binary encoding.
// Two runs are provably identical when their hashes match.
func (j *Journal) Hash() [32]byte {
	return sha256.Sum256(j.encoding())
}

// HashString returns Hash as lower-case hex, encoded on the stack and
// copied out once.
func (j *Journal) HashString() string {
	h := j.Hash()
	var buf [2 * len(h)]byte
	hex.Encode(buf[:], h[:])
	return string(buf[:])
}

// jsonHeader is the first line of the JSONL encoding.
type jsonHeader struct {
	V          int    `json:"v"`
	Seed       int64  `json:"seed"`
	Config     string `json:"config"`
	ConfigHash string `json:"confighash"`
	Records    int    `json:"records"`
}

// EncodeJSONL writes the canonical JSONL form: one header line with the
// journal key, then one line per record with a fixed field order. Like
// the binary form it is byte-stable for a given record sequence.
func (j *Journal) EncodeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := jsonHeader{
		V:          1,
		Seed:       j.Seed(),
		Config:     j.Config(),
		ConfigHash: fmt.Sprintf("%016x", j.ConfigHash()),
		Records:    j.retained(),
	}
	err := enc.Encode(hdr)
	j.Each(func(r *Record) {
		if err == nil {
			err = enc.Encode(jsonRecord{
				Seq: r.Seq, At: r.At, Kind: r.Kind.String(),
				Site: r.Site, Tx: r.Tx, Obj: r.Obj, A: r.A, B: r.B,
				Note: r.Note,
			})
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeJSONL reads a journal previously written by EncodeJSONL. A
// record's seq must be its position: the journal does not store it.
func DecodeJSONL(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("journal: empty input")
	}
	var hdr jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("journal: bad header: %w", err)
	}
	if hdr.V != 1 {
		return nil, fmt.Errorf("journal: unsupported version %d", hdr.V)
	}
	j := New(hdr.Seed, hdr.Config)
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		kind, ok := KindFromString(jr.Kind)
		if !ok {
			return nil, fmt.Errorf("journal: line %d: unknown kind %q", line, jr.Kind)
		}
		if jr.Seq != uint64(j.n) {
			return nil, fmt.Errorf("journal: line %d: seq %d, want %d", line, jr.Seq, j.n)
		}
		j.Append(jr.At, kind, jr.Site, jr.Tx, jr.Obj, jr.A, jr.B, jr.Note)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if hdr.Records != j.kept {
		return nil, fmt.Errorf("journal: header says %d records, read %d", hdr.Records, j.kept)
	}
	return j, nil
}

// Equal reports whether two journals have the same key and identical
// record sequences. It is the in-memory form of byte-identity: Equal
// journals produce identical binary and JSONL encodings, and since both
// hold the binary body, it compares bytes.
func Equal(a, b *Journal) bool {
	return a.Seed() == b.Seed() && a.Config() == b.Config() && a.retained() == b.retained() &&
		bytes.Equal(a.body(), b.body())
}

// retained returns the number of records encoded into the body.
func (j *Journal) retained() int {
	if j == nil {
		return 0
	}
	return j.kept
}

// Diff returns a short description of the first divergence between two
// journals, or "" when they are Equal. It exists to make determinism
// test failures actionable.
func Diff(a, b *Journal) string {
	if a.Seed() != b.Seed() {
		return fmt.Sprintf("seed %d vs %d", a.Seed(), b.Seed())
	}
	if a.Config() != b.Config() {
		return "config strings differ"
	}
	if Equal(a, b) {
		return ""
	}
	ar, br := a.Records(), b.Records()
	n := min(len(ar), len(br))
	for i := 0; i < n; i++ {
		if ar[i] != br[i] {
			return fmt.Sprintf("record %d: %+v vs %+v", i, ar[i], br[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(ar), len(br))
}

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto). Times are microseconds, which matches
// simulation ticks one-to-one.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// EncodeChromeTrace writes the journal in Chrome trace_event JSON
// format for visual inspection in chrome://tracing or Perfetto.
// Transactions become "threads" (tid = transaction id) of their site's
// "process"; attempts and lock-wait intervals render as duration
// events, everything else as instant events.
func (j *Journal) EncodeChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	type key struct {
		tx  int64
		obj int32
	}
	type open struct {
		at   int64
		site int32
	}
	blockStart := map[key]open{}
	attemptStart := map[int64]open{}
	j.Each(func(r *Record) {
		switch r.Kind {
		case KArrive:
			attemptStart[r.Tx] = open{at: r.At, site: r.Site}
		case KCommit, KDeadlineMiss, KRestart:
			if s, ok := attemptStart[r.Tx]; ok {
				name := "attempt:" + r.Kind.String()
				evs = append(evs, chromeEvent{
					Name: name, Cat: "txn", Ph: "X",
					Ts: s.at, Dur: maxInt64(r.At-s.at, 1),
					Pid: s.site, Tid: r.Tx,
				})
				delete(attemptStart, r.Tx)
			}
		case KLockBlock:
			blockStart[key{r.Tx, r.Obj}] = open{at: r.At, site: r.Site}
		case KLockGrant:
			if s, ok := blockStart[key{r.Tx, r.Obj}]; ok {
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("wait obj %d", r.Obj), Cat: "lock", Ph: "X",
					Ts: s.at, Dur: maxInt64(r.At-s.at, 1),
					Pid: s.site, Tid: r.Tx,
				})
				delete(blockStart, key{r.Tx, r.Obj})
			}
		}
		switch r.Kind {
		case KArrive, KLockBlock: // interval starts handled above
		default:
			evs = append(evs, chromeEvent{
				Name: r.Kind.String(), Cat: "journal", Ph: "i",
				Ts: r.At, Pid: r.Site, Tid: r.Tx, S: "t",
				Args: map[string]any{"obj": r.Obj, "a": r.A, "b": r.B, "seq": r.Seq},
			})
		}
	})
	// Deterministic output order: by timestamp, then original sequence
	// (the args carry seq, and append order already follows it).
	sort.SliceStable(evs, func(i, k int) bool { return evs[i].Ts < evs[k].Ts })
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
