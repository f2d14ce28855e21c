// Package audit checks protocol invariants against a replay journal.
//
// Every auditor is a streaming consumer of journal records: it observes
// the run one record at a time and reports violations with the sequence
// number and virtual time where the invariant broke. The auditors are
// the machine-checkable form of the guarantees the paper's protocols
// claim — the priority ceiling protocol's blocked-at-most-once bound
// and deadlock freedom, strict two-phase locking and conflict
// serializability of committed work, and two-phase commit's agreement
// property — so every experiment can prove, not assume, that the
// implementation honors them.
package audit

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rtlock/internal/core"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
)

// Violation is one invariant breach, anchored to the journal record
// that exposed it.
type Violation struct {
	// Rule names the auditor that fired.
	Rule string
	// Seq is the journal sequence number of the exposing record.
	Seq uint64
	// At is the virtual time of that record.
	At int64
	// Tx is the transaction involved (0 when not transaction-specific).
	Tx int64
	// Detail is a human-readable explanation.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: seq=%d t=%d tx=%d: %s", v.Rule, v.Seq, v.At, v.Tx, v.Detail)
}

// Auditor consumes journal records and reports invariant violations.
// It is a journal.Observer, so it can be teed into a journal and check
// the run as it is written.
type Auditor interface {
	journal.Observer
	// Name identifies the rule in reports.
	Name() string
	// Finish runs end-of-journal checks and returns all violations.
	Finish() []Violation
	// Reset returns the auditor to the state its constructor leaves it
	// in, keeping the memory it has grown, so one auditor can check
	// one journal after another.
	Reset()
}

// Run replays a retained journal through the auditors, decoding each
// record once, and returns every violation, ordered by exposing
// sequence number. A run audited as it goes tees the auditors into its
// journal instead and calls Finish.
func Run(j *journal.Journal, auds ...Auditor) []Violation {
	j.Each(func(r *journal.Record) {
		for _, a := range auds {
			a.Observe(r)
		}
	})
	return Finish(auds...)
}

// Finish closes the auditors after their last record and merges their
// violations, ordered by exposing sequence number. The result is never
// nil, so an audited run with no findings reads apart from an unaudited
// one.
func Finish(auds ...Auditor) []Violation {
	out := []Violation{}
	for _, a := range auds {
		out = append(out, a.Finish()...)
	}
	slices.SortStableFunc(out, func(a, b Violation) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// ForManager returns the auditors applicable to a single-site protocol,
// selected by its Manager.Name(): serializability of committed work
// always, then one check per promise of the protocol's table row
// (core.Protocols). Timestamp ordering holds no locks; plain 2PL and its
// priority variants can deadlock by design (the deadline timeout
// resolves them), so deadlock freedom is asserted only where the
// protocol guarantees it; blocked-at-most-once is the priority ceiling
// protocol's own bound.
func ForManager(name string) []Auditor {
	row := core.RowNamed(name)
	if row == nil {
		panic(fmt.Sprintf("audit: manager %q has no row in core.Protocols", name))
	}
	auds := []Auditor{NewSerializable(false)}
	if row.HoldsLocks {
		auds = append(auds, NewStrictTwoPhase(), NewLockSafety())
	}
	if row.DeadlockFree {
		auds = append(auds, NewDeadlockFree())
	}
	if row.BlockedOnce {
		auds = append(auds, NewBlockedAtMostOnce())
	}
	return auds
}

// ForPlacement returns the auditors applicable to a fault-free
// distributed run, keyed by the execution mode's name (dist.Mode's
// String values). The paper's two architectures synchronize through
// priority ceiling managers, so deadlock freedom applies to both:
// "global" additionally runs two-phase commit; "local" histories are
// judged per site (each replica set is its own serializable database).
// Blocked-at-most-once is omitted: registration messages travel with
// communication delay, so the ceiling a blocking decision used may lag
// the true system state. "shard" and "quorum" run strict 2PL against
// independent per-shard ceiling managers: one committed global history,
// lock safety, strict two-phase locking, and 2PC agreement all apply,
// but deadlock freedom does not — the ceiling protocol prevents cycles
// within one manager only, and cross-shard waits can cycle (the
// deadline timeout resolves them, as with plain 2PL single-site
// schemes). Quorum runs additionally get the quorum-intersection
// invariant. The "primary" baseline holds no locks and promises no
// serializability (its journal says so in the KPlacement banner), so no
// auditor applies — the absence is the point of the baseline.
func ForPlacement(mode string) []Auditor {
	switch mode {
	case "local":
		return []Auditor{NewSerializable(true), NewStrictTwoPhase(), NewLockSafety(), NewDeadlockFree()}
	case "global":
		return []Auditor{NewSerializable(false), NewStrictTwoPhase(), NewLockSafety(), NewDeadlockFree(),
			NewTwoPCConsistent()}
	case "shard":
		return []Auditor{NewSerializable(false), NewStrictTwoPhase(), NewLockSafety(), NewTwoPCConsistent()}
	case "quorum":
		return []Auditor{NewSerializable(false), NewStrictTwoPhase(), NewLockSafety(), NewTwoPCConsistent(),
			NewQuorumIntersection()}
	default: // "primary"
		return nil
	}
}

// ForFaults returns the auditors applicable to a distributed run with a
// fault plan attached, keyed like ForPlacement. Crash, loss, and
// partition events do not weaken lock safety, strict two-phase locking,
// deadlock freedom (where it held), or two-phase commit agreement —
// those must hold across any plan. Global serializability is the
// exception. In "global" mode, while the global ceiling manager's site
// is down, transactions degrade to their home sites' failover managers,
// and histories synchronized by different managers carry no
// cross-manager ordering guarantee (see DESIGN.md, "Fault model"). In
// "shard" and "quorum" mode a crash wipes a shard manager's lock table
// while a remote survivor may still think it holds locks there, so
// committed histories across the crash carry no cross-shard ordering
// guarantee either. "local" keeps its per-site serializability: each
// judged history is guarded by a single site's manager throughout. The
// 2PC modes additionally get the recovery-correctness family:
// durability and re-entry safety of WAL redo, and bounded-retry
// liveness for in-doubt participants. The quorum intersection survives
// crashes because primary stores are durable and write rounds only
// report after W installs.
func ForFaults(mode string) []Auditor {
	var auds []Auditor
	switch mode {
	case "global":
		auds = []Auditor{NewStrictTwoPhase(), NewLockSafety(), NewDeadlockFree(), NewTwoPCConsistent()}
	case "shard", "quorum":
		auds = []Auditor{NewStrictTwoPhase(), NewLockSafety(), NewTwoPCConsistent()}
	default: // "local" has no 2PC to recover; "primary" nothing to audit
		return ForPlacement(mode)
	}
	auds = append(auds, NewRecoveryDurable(), NewRecoveryReentry(), NewRecoveryLiveness())
	if mode == "quorum" {
		auds = append(auds, NewQuorumIntersection())
	}
	return auds
}

// ForCluster returns ForFaults(mode) for a run with a fault plan
// attached, else ForPlacement(mode).
func ForCluster(mode string, faulted bool) []Auditor {
	if faulted {
		return ForFaults(mode)
	}
	return ForPlacement(mode)
}

// grouper detects the record-group convention the emitters use: a
// blocking (or re-blame) episode with several blamed transactions is
// written as consecutive records sharing kind, transaction, object, and
// time. first reports whether r starts a new group.
type grouper struct {
	valid bool
	seq   uint64
	kind  journal.Kind
	tx    int64
	obj   int32
	at    int64
}

func (g *grouper) first(r *journal.Record) bool {
	same := g.valid && r.Seq == g.seq+1 && r.Kind == g.kind &&
		r.Tx == g.tx && r.Obj == g.obj && r.At == g.at
	g.valid = true
	g.seq, g.kind, g.tx, g.obj, g.at = r.Seq, r.Kind, r.Tx, r.Obj, r.At
	return !same
}

// BlockedAtMostOnce checks the priority ceiling protocol's bound: one
// transaction attempt is blocked by lower-priority work at most once.
// Priorities are base priorities (deadline, id) learned from KArrive.
type BlockedAtMostOnce struct {
	g        grouper
	prio     map[int64]sim.Priority
	episodes map[int64]int
	// counted marks whether the current block group already counted as
	// a lower-priority episode, so later records of the same group
	// don't double-count.
	counted map[int64]bool
	v       []Violation
}

// NewBlockedAtMostOnce returns the PCP blocking-bound auditor.
func NewBlockedAtMostOnce() *BlockedAtMostOnce {
	return &BlockedAtMostOnce{
		prio:     make(map[int64]sim.Priority),
		episodes: make(map[int64]int),
		counted:  make(map[int64]bool),
	}
}

// Reset implements Auditor.
func (b *BlockedAtMostOnce) Reset() {
	b.g = grouper{}
	clear(b.prio)
	clear(b.episodes)
	clear(b.counted)
	b.v = b.v[:0]
}

// Name implements Auditor.
func (b *BlockedAtMostOnce) Name() string { return "pcp-blocked-at-most-once" }

// Observe implements Auditor.
func (b *BlockedAtMostOnce) Observe(r *journal.Record) {
	switch r.Kind {
	case journal.KArrive:
		b.prio[r.Tx] = sim.Priority{Deadline: r.A, TxID: r.Tx}
		delete(b.episodes, r.Tx)
	case journal.KRestart, journal.KCommit, journal.KDeadlineMiss:
		delete(b.episodes, r.Tx)
	case journal.KLockBlock:
		if b.g.first(r) {
			b.counted[r.Tx] = false
		}
		if b.counted[r.Tx] || r.A < 0 {
			return
		}
		waiter, okW := b.prio[r.Tx]
		blamed, okB := b.prio[r.A]
		if !okW || !okB || !blamed.Lower(waiter) {
			return
		}
		b.counted[r.Tx] = true
		b.episodes[r.Tx]++
		if b.episodes[r.Tx] == 2 {
			b.v = append(b.v, Violation{
				Rule: b.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("second lower-priority blocking episode in one attempt (blamed tx %d on obj %d)", r.A, r.Obj),
			})
		}
	}
}

// Finish implements Auditor.
func (b *BlockedAtMostOnce) Finish() []Violation { return b.v }

// DeadlockFree checks that the waits-for graph implied by blocking and
// re-blame records never contains a cycle. Each parked waiter has one
// outgoing edge set (it waits on one lock), replaced on re-blame and
// cleared when the wait ends by grant, restart, commit, or deadline
// miss. Only direct conflicts (B flag 0) form edges: a ceiling-blocked
// transaction resumes when the system ceiling drops — which any
// contributing holder's release can cause — so ceiling blame is
// attribution, not a hard wait on the blamed transaction. A wounded
// transaction is unwinding, no longer waiting, so KWound clears the
// victim's edges (wound-based schemes transiently show victim cycles
// that the in-flight abort resolves).
type DeadlockFree struct {
	g     grouper
	edges map[int64][]int64
	v     []Violation

	// findCycle scratch, reused across the per-block walks so the hot
	// Observe path allocates nothing in steady state.
	seen map[int64]bool
	path []int64
}

// NewDeadlockFree returns the waits-for cycle auditor.
func NewDeadlockFree() *DeadlockFree {
	return &DeadlockFree{
		edges: make(map[int64][]int64),
		seen:  make(map[int64]bool),
	}
}

// Reset implements Auditor.
// An empty edge set reads as none, so each keeps its buffer.
func (d *DeadlockFree) Reset() {
	d.g = grouper{}
	for tx, es := range d.edges {
		d.edges[tx] = es[:0]
	}
	clear(d.seen)
	d.path = d.path[:0]
	d.v = d.v[:0]
}

// Name implements Auditor.
func (d *DeadlockFree) Name() string { return "deadlock-free" }

// Observe implements Auditor.
func (d *DeadlockFree) Observe(r *journal.Record) {
	switch r.Kind {
	case journal.KLockBlock, journal.KBlame:
		if d.g.first(r) {
			d.dropEdges(r.Tx)
		}
		if r.A < 0 || r.B != 0 {
			return
		}
		es := d.edges[r.Tx]
		dup := false
		for _, e := range es {
			if e == r.A {
				dup = true
				break
			}
		}
		if !dup {
			d.edges[r.Tx] = append(es, r.A)
		}
		if cycle := d.findCycle(r.Tx); cycle != nil {
			d.v = append(d.v, Violation{
				Rule: d.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("waits-for cycle %v", cycle),
			})
		}
	case journal.KLockGrant, journal.KRestart, journal.KCommit,
		journal.KDeadlineMiss, journal.KUnregister, journal.KWound:
		d.dropEdges(r.Tx)
	}
}

// dropEdges clears tx's outgoing edge set, keeping the slice for reuse.
func (d *DeadlockFree) dropEdges(tx int64) {
	if es, ok := d.edges[tx]; ok {
		d.edges[tx] = es[:0]
	}
}

// findCycle walks the waits-for edges from start and returns the cycle
// through start, if any. The returned slice aliases the walk scratch;
// callers consume it (format it) before the next Observe.
func (d *DeadlockFree) findCycle(start int64) []int64 {
	d.seen[start] = true
	path := append(d.path[:0], start)
	cur := start
	found := false
	var result []int64
	for {
		next, ok := int64(0), false
		// Deterministic walk: smallest successor first.
		for _, n := range d.edges[cur] {
			if !ok || n < next {
				next, ok = n, true
			}
		}
		if !ok {
			break
		}
		if next == start {
			result = append(path, start)
			found = true
			break
		}
		if d.seen[next] {
			// Cycle not through start; it will be reported when one of
			// its own members gains an edge.
			break
		}
		d.seen[next] = true
		path = append(path, next)
		cur = next
	}
	for _, n := range path {
		delete(d.seen, n)
	}
	d.path = path[:0]
	if !found {
		return nil
	}
	return result
}

// Finish implements Auditor.
func (d *DeadlockFree) Finish() []Violation { return d.v }

// StrictTwoPhase checks that no transaction attempt acquires a lock
// after releasing one: every protocol here releases all locks at end of
// attempt (strict 2PL), so a grant after a release within the same
// attempt is a bug. Attempt boundaries are KRegister/KRestart records;
// commit and deadline miss also close the attempt.
type StrictTwoPhase struct {
	released map[int64]uint64 // tx -> seq of first release this attempt
	v        []Violation
}

// NewStrictTwoPhase returns the strict-2PL auditor.
func NewStrictTwoPhase() *StrictTwoPhase {
	return &StrictTwoPhase{released: make(map[int64]uint64)}
}

// Reset implements Auditor.
func (s *StrictTwoPhase) Reset() {
	clear(s.released)
	s.v = s.v[:0]
}

// Name implements Auditor.
func (s *StrictTwoPhase) Name() string { return "strict-two-phase" }

// Observe implements Auditor.
func (s *StrictTwoPhase) Observe(r *journal.Record) {
	switch r.Kind {
	case journal.KLockRelease:
		if _, ok := s.released[r.Tx]; !ok {
			s.released[r.Tx] = r.Seq
		}
	case journal.KLockGrant:
		if rel, ok := s.released[r.Tx]; ok {
			s.v = append(s.v, Violation{
				Rule: s.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("lock on obj %d granted after release at seq %d in the same attempt", r.Obj, rel),
			})
		}
	case journal.KRegister, journal.KRestart, journal.KCommit, journal.KDeadlineMiss:
		delete(s.released, r.Tx)
	}
}

// Finish implements Auditor.
func (s *StrictTwoPhase) Finish() []Violation { return s.v }

// LockSafety checks grant compatibility: at no instant do two
// transactions hold conflicting locks on the same (site, object). This
// is the ground-level guarantee the lock managers provide and every
// other property builds on. A site crash (KSiteCrash, fault runs only)
// discards that site's volatile lock table without individual release
// records, so the auditor clears the site's holders there too.
type LockSafety struct {
	holders map[lockKey][]txMode // (site,obj) -> held modes, grant order
	v       []Violation
}

type lockKey struct {
	site int32
	obj  int32
}

// txMode is one holder of a lock: the transaction and its strongest
// granted mode. Holder sets are tiny (one writer or a few readers), so
// slices beat the per-object maps they replaced.
type txMode struct {
	tx   int64
	mode int64
}

// NewLockSafety returns the grant-compatibility auditor.
func NewLockSafety() *LockSafety {
	return &LockSafety{holders: make(map[lockKey][]txMode)}
}

// Reset implements Auditor.
// An empty holder set reads as none, so each keeps its buffer.
func (l *LockSafety) Reset() {
	for k, hs := range l.holders {
		l.holders[k] = hs[:0]
	}
	l.v = l.v[:0]
}

// Name implements Auditor.
func (l *LockSafety) Name() string { return "lock-safety" }

// Observe implements Auditor.
func (l *LockSafety) Observe(r *journal.Record) {
	key := lockKey{site: r.Site, obj: r.Obj}
	switch r.Kind {
	case journal.KLockGrant:
		hs := l.holders[key]
		var conflicts []int64
		for _, h := range hs {
			if h.tx != r.Tx && (h.mode == int64(core.Write) || r.A == int64(core.Write)) {
				conflicts = append(conflicts, h.tx)
			}
		}
		if len(conflicts) > 0 {
			sort.Slice(conflicts, func(i, j int) bool { return conflicts[i] < conflicts[j] })
			l.v = append(l.v, Violation{
				Rule: l.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("mode %d grant on site %d obj %d conflicts with holders %v", r.A, r.Site, r.Obj, conflicts),
			})
		}
		upgraded := false
		for i := range hs {
			if hs[i].tx == r.Tx {
				if hs[i].mode < r.A {
					hs[i].mode = r.A
				}
				upgraded = true
				break
			}
		}
		if !upgraded {
			l.holders[key] = append(hs, txMode{tx: r.Tx, mode: r.A})
		}
	case journal.KLockRelease:
		hs := l.holders[key]
		for i := range hs {
			if hs[i].tx == r.Tx {
				l.holders[key] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
	case journal.KSiteCrash:
		for k := range l.holders {
			if k.site == r.Site {
				delete(l.holders, k)
			}
		}
	}
}

// Finish implements Auditor.
func (l *LockSafety) Finish() []Violation { return l.v }

// TwoPCConsistent checks two-phase commit's agreement property: every
// decision for a transaction is the same, a commit decision requires a
// recorded yes-vote from every prepared participant, and no commit
// decision coexists with an abort vote.
type TwoPCConsistent struct {
	prepares  map[int64]map[int64]bool // tx -> participant set (from A)
	votes     map[int64]map[int32]int64
	decisions map[int64][]journal.Record
	order     []int64
}

// NewTwoPCConsistent returns the 2PC agreement auditor.
func NewTwoPCConsistent() *TwoPCConsistent {
	return &TwoPCConsistent{
		prepares:  make(map[int64]map[int64]bool),
		votes:     make(map[int64]map[int32]int64),
		decisions: make(map[int64][]journal.Record),
	}
}

// Reset implements Auditor.
func (t *TwoPCConsistent) Reset() {
	clear(t.prepares)
	clear(t.votes)
	clear(t.decisions)
	t.order = t.order[:0]
}

// Name implements Auditor.
func (t *TwoPCConsistent) Name() string { return "twopc-consistent" }

// Observe implements Auditor.
func (t *TwoPCConsistent) Observe(r *journal.Record) {
	switch r.Kind {
	case journal.KTwoPCPrepare:
		m, ok := t.prepares[r.Tx]
		if !ok {
			m = make(map[int64]bool)
			t.prepares[r.Tx] = m
			t.order = append(t.order, r.Tx)
		}
		m[r.A] = true
	case journal.KTwoPCVote:
		m, ok := t.votes[r.Tx]
		if !ok {
			m = make(map[int32]int64)
			t.votes[r.Tx] = m
		}
		m[r.Site] = r.A
	case journal.KTwoPCDecision:
		t.decisions[r.Tx] = append(t.decisions[r.Tx], *r)
	}
}

// Finish implements Auditor.
func (t *TwoPCConsistent) Finish() []Violation {
	var v []Violation
	for _, tx := range t.order {
		decs := t.decisions[tx]
		if len(decs) == 0 {
			continue // coordinator never decided (run ended mid-protocol)
		}
		first := decs[0]
		for _, d := range decs[1:] {
			if d.A != first.A {
				v = append(v, Violation{
					Rule: t.Name(), Seq: d.Seq, At: d.At, Tx: tx,
					Detail: fmt.Sprintf("decision %d at site %d disagrees with decision %d at seq %d", d.A, d.Site, first.A, first.Seq),
				})
			}
		}
		if first.A != 1 {
			continue
		}
		// Report abort-vote conflicts in site order, not map order, so
		// two audits of the same journal emit identical reports.
		abortSites := make([]int32, 0, len(t.votes[tx]))
		for site, vote := range t.votes[tx] {
			if vote == 0 {
				abortSites = append(abortSites, site)
			}
		}
		sort.Slice(abortSites, func(i, j int) bool { return abortSites[i] < abortSites[j] })
		for _, site := range abortSites {
			v = append(v, Violation{
				Rule: t.Name(), Seq: first.Seq, At: first.At, Tx: tx,
				Detail: fmt.Sprintf("committed despite abort vote from site %d", site),
			})
		}
		parts := make([]int64, 0, len(t.prepares[tx]))
		for p := range t.prepares[tx] {
			parts = append(parts, p)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
		for _, p := range parts {
			if vote, ok := t.votes[tx][int32(p)]; !ok || vote != 1 {
				v = append(v, Violation{
					Rule: t.Name(), Seq: first.Seq, At: first.At, Tx: tx,
					Detail: fmt.Sprintf("committed without a yes-vote from prepared participant %d", p),
				})
			}
		}
	}
	return v
}

// Serializable feeds committed attempts' operations into the conflict
// serializability checker in history.go. With perSite set (the
// local-ceiling replication approach) every site's history is judged
// independently — each replica set is its own database; otherwise all
// operations form one history.
type Serializable struct {
	perSite bool
	pending map[int64][]pendingOp
	hist    map[int32]*history
	lastSeq uint64
	lastAt  int64

	// free recycles pending-op buffers of finished attempts; without it
	// every restarted or committed transaction leaks its slice to the
	// garbage collector. spare holds the histories Finish has judged,
	// emptied for the journal after a Reset.
	free  [][]pendingOp
	spare []*history
	// sites is the scratch of Finish.
	sites []int32
}

type pendingOp struct {
	site int32
	obj  core.ObjectID
	mode core.Mode
	at   sim.Time
}

// NewSerializable returns the committed-history serializability
// auditor.
func NewSerializable(perSite bool) *Serializable {
	return &Serializable{
		perSite: perSite,
		pending: make(map[int64][]pendingOp),
		hist:    make(map[int32]*history, 4),
	}
}

// Reset implements Auditor.
func (s *Serializable) Reset() {
	for tx := range s.pending { //rtlint:allow maprange recycles empty buffers; their order is never observed
		s.dropPending(tx)
	}
	for site, h := range s.hist { //rtlint:allow maprange recycles emptied histories; their order is never observed
		h.reset()
		s.spare = append(s.spare, h)
		delete(s.hist, site)
	}
	s.lastSeq, s.lastAt = 0, 0
}

// Name implements Auditor.
func (s *Serializable) Name() string { return "serializable" }

// Observe implements Auditor.
func (s *Serializable) Observe(r *journal.Record) {
	s.lastSeq, s.lastAt = r.Seq, r.At
	switch r.Kind {
	case journal.KOp:
		ops, ok := s.pending[r.Tx]
		if !ok && len(s.free) > 0 {
			ops = s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
		}
		s.pending[r.Tx] = append(ops, pendingOp{
			site: r.Site,
			obj:  core.ObjectID(r.Obj),
			mode: core.Mode(r.A),
			at:   sim.Time(r.At),
		})
	case journal.KRestart, journal.KDeadlineMiss:
		s.dropPending(r.Tx)
	case journal.KCommit:
		for _, op := range s.pending[r.Tx] {
			site := int32(0)
			if s.perSite {
				site = op.site
			}
			h, ok := s.hist[site]
			if !ok {
				h = s.newHistory()
				s.hist[site] = h
			}
			h.Record(r.Tx, op.obj, op.mode, op.at)
			h.Commit(r.Tx)
		}
		s.dropPending(r.Tx)
	}
}

// newHistory takes a spare history, or builds one.
func (s *Serializable) newHistory() *history {
	if n := len(s.spare); n > 0 {
		h := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return h
	}
	return newHistory()
}

// dropPending retires tx's buffered operations, recycling the buffer.
func (s *Serializable) dropPending(tx int64) {
	if ops, ok := s.pending[tx]; ok {
		if cap(ops) > 0 {
			s.free = append(s.free, ops[:0])
		}
		delete(s.pending, tx)
	}
}

// Finish implements Auditor.
func (s *Serializable) Finish() []Violation {
	sites := s.sites[:0]
	for site := range s.hist {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	s.sites = sites
	var v []Violation
	for _, site := range sites {
		h := s.hist[site]
		delete(s.hist, site)
		ok := h.ConflictSerializable()
		h.reset()
		s.spare = append(s.spare, h)
		if !ok {
			v = append(v, Violation{
				Rule: s.Name(), Seq: s.lastSeq, At: s.lastAt,
				Detail: fmt.Sprintf("committed history at site %d is not conflict serializable", site),
			})
		}
	}
	return v
}

// CommitSet extracts the set of committed transaction ids from a
// journal.
func CommitSet(j *journal.Journal) map[int64]bool {
	out := make(map[int64]bool)
	j.Each(func(r *journal.Record) {
		if r.Kind == journal.KCommit {
			out[r.Tx] = true
		}
	})
	return out
}

// CompareCommitSets reports the transactions committed in exactly one
// of the two journals, sorted. This is a diagnostic, not an invariant:
// the global and local ceiling architectures legitimately commit
// different subsets of the same workload (they have different blocking
// and message costs), and the comparison quantifies how far apart the
// outcomes are.
func CompareCommitSets(a, b *journal.Journal) (onlyA, onlyB []int64) {
	sa, sb := CommitSet(a), CommitSet(b)
	for tx := range sa {
		if !sb[tx] {
			onlyA = append(onlyA, tx)
		}
	}
	for tx := range sb {
		if !sa[tx] {
			onlyB = append(onlyB, tx)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return onlyA, onlyB
}
