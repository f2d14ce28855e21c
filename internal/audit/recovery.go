package audit

import (
	"fmt"
	"sort"

	"rtlock/internal/journal"
)

// The recovery-correctness auditor family checks the crash-recovery
// machinery of the global approach against its journal: a participant
// that voted yes is prepared — its vote is forced to the write-ahead
// log — and a recovery's WAL redo must restore exactly the still-
// undecided votes (no committed-then-lost work, no resurrected settled
// work), while every surviving in-doubt participant must eventually
// settle or journal its retry exhaustion.

// inDoubtKey identifies one participant's stake in one transaction.
type inDoubtKey struct {
	site int32
	tx   int64
}

// inDoubtTracker derives, from the journal alone, which (site, tx)
// pairs are in doubt: the participant cast a fresh yes-vote
// (KTwoPCVote A=1 B=0 — duplicate re-votes carry B=1 and settled
// restates are not journaled) and has not yet observed a decision.
// Decision records with note "coord" are the coordinator's own and do
// not settle a participant.
type inDoubtTracker struct {
	pending map[inDoubtKey]bool
}

func newInDoubtTracker() inDoubtTracker {
	return inDoubtTracker{pending: make(map[inDoubtKey]bool, 16)}
}

func (t *inDoubtTracker) observe(r *journal.Record) {
	switch r.Kind {
	case journal.KTwoPCVote:
		if r.A == 1 && r.B == 0 {
			t.pending[inDoubtKey{site: r.Site, tx: r.Tx}] = true
		}
	case journal.KTwoPCDecision:
		if r.Note != "coord" {
			delete(t.pending, inDoubtKey{site: r.Site, tx: r.Tx})
		}
	}
}

// inDoubtAt returns the site's in-doubt transactions, sorted.
func (t *inDoubtTracker) inDoubtAt(site int32) []int64 {
	var txs []int64
	for k := range t.pending {
		if k.site == site {
			txs = append(txs, k.tx)
		}
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	return txs
}

// RecoveryDurable checks durability across crashes: a WAL redo
// (KWALRedo) must restore at least every vote the journal still holds
// in doubt at that site — fewer means a forced vote was lost, i.e.
// committed-then-forgotten prepared state.
type RecoveryDurable struct {
	t inDoubtTracker
	v []Violation
}

// NewRecoveryDurable returns the crash-durability auditor.
func NewRecoveryDurable() *RecoveryDurable {
	return &RecoveryDurable{t: newInDoubtTracker()}
}

// Reset implements Auditor.
func (a *RecoveryDurable) Reset() {
	clear(a.t.pending)
	a.v = a.v[:0]
}

// Name implements Auditor.
func (a *RecoveryDurable) Name() string { return "recovery-durable" }

// Observe implements Auditor.
func (a *RecoveryDurable) Observe(r *journal.Record) {
	if r.Kind == journal.KWALRedo {
		expected := a.t.inDoubtAt(r.Site)
		if r.A < int64(len(expected)) {
			a.v = append(a.v, Violation{
				Rule: a.Name(), Seq: r.Seq, At: r.At,
				Detail: fmt.Sprintf("WAL redo at site %d restored %d votes but %d are in doubt (txs %v): a forced vote was lost",
					r.Site, r.A, len(expected), expected),
			})
		}
	}
	a.t.observe(r)
}

// Finish implements Auditor.
func (a *RecoveryDurable) Finish() []Violation { return a.v }

// RecoveryReentry checks recovery re-entry safety: replaying the WAL
// must be idempotent under repeated crashes, so a redo can never
// restore more votes than the journal holds in doubt — more means
// settled (or never-cast) work was resurrected.
type RecoveryReentry struct {
	t inDoubtTracker
	v []Violation
}

// NewRecoveryReentry returns the redo-idempotence auditor.
func NewRecoveryReentry() *RecoveryReentry {
	return &RecoveryReentry{t: newInDoubtTracker()}
}

// Reset implements Auditor.
func (a *RecoveryReentry) Reset() {
	clear(a.t.pending)
	a.v = a.v[:0]
}

// Name implements Auditor.
func (a *RecoveryReentry) Name() string { return "recovery-reentry" }

// Observe implements Auditor.
func (a *RecoveryReentry) Observe(r *journal.Record) {
	if r.Kind == journal.KWALRedo {
		expected := a.t.inDoubtAt(r.Site)
		if r.A > int64(len(expected)) {
			a.v = append(a.v, Violation{
				Rule: a.Name(), Seq: r.Seq, At: r.At,
				Detail: fmt.Sprintf("WAL redo at site %d restored %d votes but only %d are in doubt (txs %v): settled work was resurrected",
					r.Site, r.A, len(expected), expected),
			})
		}
	}
	a.t.observe(r)
}

// Finish implements Auditor.
func (a *RecoveryReentry) Finish() []Violation { return a.v }

// retryKey identifies one bounded retry loop.
type retryKey struct {
	site  int32
	tx    int64
	phase string
}

// RecoveryLiveness checks in-doubt liveness: every prepared participant
// must resolve within the bounded retry budget — by run end each
// in-doubt (site, tx) is either settled, exempt because its site is
// down, or journaled as retry-exhausted (graceful degradation). Retry
// attempts must also never skip a round: each KRetry's attempt number
// is at most one above its predecessor in the same loop.
type RecoveryLiveness struct {
	t           inDoubtTracker
	down        map[int32]bool
	exhausted   map[inDoubtKey]bool
	lastAttempt map[retryKey]int64
	lastSeq     uint64
	lastAt      int64
	v           []Violation
}

// NewRecoveryLiveness returns the in-doubt liveness auditor.
func NewRecoveryLiveness() *RecoveryLiveness {
	return &RecoveryLiveness{
		t:           newInDoubtTracker(),
		down:        make(map[int32]bool, 4),
		exhausted:   make(map[inDoubtKey]bool, 4),
		lastAttempt: make(map[retryKey]int64, 8),
	}
}

// Reset implements Auditor.
func (a *RecoveryLiveness) Reset() {
	clear(a.t.pending)
	clear(a.down)
	clear(a.exhausted)
	clear(a.lastAttempt)
	a.lastSeq, a.lastAt = 0, 0
	a.v = a.v[:0]
}

// Name implements Auditor.
func (a *RecoveryLiveness) Name() string { return "recovery-liveness" }

// Observe implements Auditor.
func (a *RecoveryLiveness) Observe(r *journal.Record) {
	a.lastSeq, a.lastAt = r.Seq, r.At
	a.t.observe(r)
	switch r.Kind {
	case journal.KSiteCrash:
		a.down[r.Site] = true
	case journal.KSiteRecover:
		a.down[r.Site] = false
	case journal.KRetryExhausted:
		if r.Note == "resolve" {
			a.exhausted[inDoubtKey{site: r.Site, tx: r.Tx}] = true
		}
	case journal.KRetry:
		k := retryKey{site: r.Site, tx: r.Tx, phase: r.Note}
		if prev, ok := a.lastAttempt[k]; ok && r.A > prev+1 {
			a.v = append(a.v, Violation{
				Rule: a.Name(), Seq: r.Seq, At: r.At, Tx: r.Tx,
				Detail: fmt.Sprintf("retry attempt %d at site %d skipped past attempt %d (phase %s)",
					r.A, r.Site, prev, r.Note),
			})
		}
		a.lastAttempt[k] = r.A
	}
}

// Finish implements Auditor.
func (a *RecoveryLiveness) Finish() []Violation {
	var keys []inDoubtKey
	for k := range a.t.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].site != keys[j].site {
			return keys[i].site < keys[j].site
		}
		return keys[i].tx < keys[j].tx
	})
	for _, k := range keys {
		if a.down[k.site] || a.exhausted[k] {
			continue // down sites are exempt; exhaustion is graceful
		}
		a.v = append(a.v, Violation{
			Rule: a.Name(), Seq: a.lastSeq, At: a.lastAt, Tx: k.tx,
			Detail: fmt.Sprintf("participant site %d still in doubt on tx %d at run end without retry exhaustion", k.site, k.tx),
		})
	}
	return a.v
}
