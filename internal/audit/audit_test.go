package audit

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"rtlock/internal/journal"
)

// jb is a tiny journal builder for hand-crafted auditor inputs.
type jb struct {
	j  *journal.Journal
	at int64
}

func newJB() *jb { return &jb{j: journal.New(1, "test")} }

func (b *jb) add(kind journal.Kind, site int32, tx int64, obj int32, a, bb int64) *jb {
	b.at++
	b.j.Append(b.at, kind, site, tx, obj, a, bb, "")
	return b
}

// addAt appends at the same virtual time as the previous record, for
// encoding multi-record groups.
func (b *jb) addAt(kind journal.Kind, site int32, tx int64, obj int32, a, bb int64) *jb {
	b.j.Append(b.at, kind, site, tx, obj, a, bb, "")
	return b
}

func wantViolations(t *testing.T, v []Violation, rule string, n int) {
	t.Helper()
	got := 0
	for _, x := range v {
		if x.Rule == rule {
			got++
		}
	}
	if got != n {
		t.Fatalf("rule %s: got %d violations, want %d: %v", rule, got, n, v)
	}
}

func TestBlockedAtMostOnce(t *testing.T) {
	// tx 1 (tight deadline, high priority) is blocked twice in one
	// attempt by lower-priority tx 2 (loose deadline): a violation.
	b := newJB()
	b.add(journal.KArrive, 0, 1, 0, 100, 0)
	b.add(journal.KArrive, 0, 2, 0, 900, 0)
	b.add(journal.KLockBlock, 0, 1, 10, 2, 1)
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockBlock, 0, 1, 11, 2, 1)
	v := Run(b.j, NewBlockedAtMostOnce())
	wantViolations(t, v, "pcp-blocked-at-most-once", 1)

	// A restart between the two episodes starts a new attempt: clean.
	b = newJB()
	b.add(journal.KArrive, 0, 1, 0, 100, 0)
	b.add(journal.KArrive, 0, 2, 0, 900, 0)
	b.add(journal.KLockBlock, 0, 1, 10, 2, 1)
	b.add(journal.KRestart, 0, 1, 0, 1, 0)
	b.add(journal.KLockBlock, 0, 1, 11, 2, 1)
	v = Run(b.j, NewBlockedAtMostOnce())
	wantViolations(t, v, "pcp-blocked-at-most-once", 0)

	// Blocking behind HIGHER-priority work does not count: tx 2 blocked
	// twice by tx 1 is fine.
	b = newJB()
	b.add(journal.KArrive, 0, 1, 0, 100, 0)
	b.add(journal.KArrive, 0, 2, 0, 900, 0)
	b.add(journal.KLockBlock, 0, 2, 10, 1, 0)
	b.add(journal.KLockGrant, 0, 2, 10, 1, 0)
	b.add(journal.KLockBlock, 0, 2, 11, 1, 0)
	v = Run(b.j, NewBlockedAtMostOnce())
	wantViolations(t, v, "pcp-blocked-at-most-once", 0)

	// One episode blaming several lower-priority holders via a record
	// group counts once.
	b = newJB()
	b.add(journal.KArrive, 0, 1, 0, 100, 0)
	b.add(journal.KArrive, 0, 2, 0, 900, 0)
	b.add(journal.KArrive, 0, 3, 0, 950, 0)
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	b.addAt(journal.KLockBlock, 0, 1, 10, 3, 0)
	v = Run(b.j, NewBlockedAtMostOnce())
	wantViolations(t, v, "pcp-blocked-at-most-once", 0)
}

func TestDeadlockFree(t *testing.T) {
	// 1 waits for 2, 2 waits for 1: cycle.
	b := newJB()
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	b.add(journal.KLockBlock, 0, 2, 11, 1, 0)
	v := Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 1)
	if !strings.Contains(v[0].Detail, "cycle") {
		t.Fatalf("detail %q should mention the cycle", v[0].Detail)
	}

	// The same waits with a grant between them never form a cycle.
	b = newJB()
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockBlock, 0, 2, 11, 1, 0)
	v = Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 0)

	// Re-blame replaces the edge set: 1 first blames 2, then is
	// re-blamed to 3 only; a later wait of 2 on 1 is no cycle.
	b = newJB()
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	b.add(journal.KBlame, 0, 1, 10, 3, 0)
	b.add(journal.KLockBlock, 0, 2, 11, 1, 0)
	v = Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 0)

	// Three-party cycle through a blame group.
	b = newJB()
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	b.add(journal.KLockBlock, 0, 2, 11, 3, 0)
	b.add(journal.KLockBlock, 0, 3, 12, 1, 0)
	v = Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 1)

	// Ceiling blocks (B flag 1) are attribution, not waits: a mutual
	// ceiling blame is not a deadlock.
	b = newJB()
	b.add(journal.KLockBlock, 0, 1, 10, 2, 1)
	b.add(journal.KLockBlock, 0, 2, 11, 1, 1)
	v = Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 0)

	// A wounded victim is unwinding, not waiting: 1 waits for 2, 2 is
	// wounded by 1, then 2's stale wait edge toward 1 must be gone.
	b = newJB()
	b.add(journal.KLockBlock, 0, 2, 11, 1, 0)
	b.add(journal.KWound, 0, 2, 0, 1, 0)
	b.add(journal.KLockBlock, 0, 1, 10, 2, 0)
	v = Run(b.j, NewDeadlockFree())
	wantViolations(t, v, "deadlock-free", 0)
}

func TestStrictTwoPhase(t *testing.T) {
	// Grant after release in one attempt: violation.
	b := newJB()
	b.add(journal.KRegister, 0, 1, 0, 0, 0)
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockRelease, 0, 1, 10, 0, 0)
	b.add(journal.KLockGrant, 0, 1, 11, 1, 0)
	v := Run(b.j, NewStrictTwoPhase())
	wantViolations(t, v, "strict-two-phase", 1)

	// A new registration (next attempt) resets the phase.
	b = newJB()
	b.add(journal.KRegister, 0, 1, 0, 0, 0)
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockRelease, 0, 1, 10, 0, 0)
	b.add(journal.KRestart, 0, 1, 0, 1, 0)
	b.add(journal.KRegister, 0, 1, 0, 0, 0)
	b.add(journal.KLockGrant, 0, 1, 11, 1, 0)
	v = Run(b.j, NewStrictTwoPhase())
	wantViolations(t, v, "strict-two-phase", 0)
}

func TestLockSafety(t *testing.T) {
	// Two write grants on one object: violation.
	b := newJB()
	b.add(journal.KLockGrant, 0, 1, 10, 2, 0)
	b.add(journal.KLockGrant, 0, 2, 10, 2, 0)
	v := Run(b.j, NewLockSafety())
	wantViolations(t, v, "lock-safety", 1)

	// Shared readers are fine; a write after both released is fine.
	b = newJB()
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockGrant, 0, 2, 10, 1, 0)
	b.add(journal.KLockRelease, 0, 1, 10, 0, 0)
	b.add(journal.KLockRelease, 0, 2, 10, 0, 0)
	b.add(journal.KLockGrant, 0, 3, 10, 2, 0)
	v = Run(b.j, NewLockSafety())
	wantViolations(t, v, "lock-safety", 0)

	// Same object id on different sites never conflicts (replicas).
	b = newJB()
	b.add(journal.KLockGrant, 0, 1, 10, 2, 0)
	b.add(journal.KLockGrant, 1, 2, 10, 2, 0)
	v = Run(b.j, NewLockSafety())
	wantViolations(t, v, "lock-safety", 0)

	// Read->write upgrade by the same holder is not a conflict with
	// itself.
	b = newJB()
	b.add(journal.KLockGrant, 0, 1, 10, 1, 0)
	b.add(journal.KLockGrant, 0, 1, 10, 2, 0)
	v = Run(b.j, NewLockSafety())
	wantViolations(t, v, "lock-safety", 0)
}

func TestTwoPCConsistent(t *testing.T) {
	// Clean protocol round: prepare to sites 1,2; both vote yes; commit
	// decisions everywhere.
	b := newJB()
	b.add(journal.KTwoPCPrepare, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCPrepare, 0, 7, 0, 2, 0)
	b.add(journal.KTwoPCVote, 1, 7, 0, 1, 0)
	b.add(journal.KTwoPCVote, 2, 7, 0, 1, 0)
	b.add(journal.KTwoPCDecision, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCDecision, 1, 7, 0, 1, 0)
	b.add(journal.KTwoPCDecision, 2, 7, 0, 1, 0)
	v := Run(b.j, NewTwoPCConsistent())
	wantViolations(t, v, "twopc-consistent", 0)

	// Commit despite an abort vote: two violations (abort vote present,
	// and no yes-vote from that participant).
	b = newJB()
	b.add(journal.KTwoPCPrepare, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCVote, 1, 7, 0, 0, 0)
	b.add(journal.KTwoPCDecision, 0, 7, 0, 1, 0)
	v = Run(b.j, NewTwoPCConsistent())
	wantViolations(t, v, "twopc-consistent", 2)

	// Disagreeing decisions.
	b = newJB()
	b.add(journal.KTwoPCPrepare, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCVote, 1, 7, 0, 1, 0)
	b.add(journal.KTwoPCDecision, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCDecision, 1, 7, 0, 0, 0)
	v = Run(b.j, NewTwoPCConsistent())
	wantViolations(t, v, "twopc-consistent", 1)

	// Abort round with an abort vote is fine.
	b = newJB()
	b.add(journal.KTwoPCPrepare, 0, 7, 0, 1, 0)
	b.add(journal.KTwoPCVote, 1, 7, 0, 0, 0)
	b.add(journal.KTwoPCDecision, 0, 7, 0, 0, 0)
	v = Run(b.j, NewTwoPCConsistent())
	wantViolations(t, v, "twopc-consistent", 0)
}

func TestSerializable(t *testing.T) {
	// Classic non-serializable interleaving: t1 reads x then writes y,
	// t2 reads y then writes x, both commit.
	b := newJB()
	b.add(journal.KOp, 0, 1, 1, 1, 0) // t1 R x
	b.add(journal.KOp, 0, 2, 2, 1, 0) // t2 R y
	b.add(journal.KOp, 0, 1, 2, 2, 0) // t1 W y
	b.add(journal.KOp, 0, 2, 1, 2, 0) // t2 W x
	b.add(journal.KCommit, 0, 1, 0, 0, 0)
	b.add(journal.KCommit, 0, 2, 0, 0, 0)
	v := Run(b.j, NewSerializable(false))
	wantViolations(t, v, "serializable", 1)

	// The same ops with t2 restarted (not committed) are serializable.
	b = newJB()
	b.add(journal.KOp, 0, 1, 1, 1, 0)
	b.add(journal.KOp, 0, 2, 2, 1, 0)
	b.add(journal.KOp, 0, 1, 2, 2, 0)
	b.add(journal.KOp, 0, 2, 1, 2, 0)
	b.add(journal.KCommit, 0, 1, 0, 0, 0)
	b.add(journal.KRestart, 0, 2, 0, 1, 0)
	v = Run(b.j, NewSerializable(false))
	wantViolations(t, v, "serializable", 0)

	// Per-site judging separates the conflicting pairs onto different
	// sites, so each site's history is trivially serializable.
	b = newJB()
	b.add(journal.KOp, 0, 1, 1, 1, 0)
	b.add(journal.KOp, 1, 2, 2, 1, 0)
	b.add(journal.KOp, 0, 1, 2, 2, 0)
	b.add(journal.KOp, 1, 2, 1, 2, 0)
	b.add(journal.KCommit, 0, 1, 0, 0, 0)
	b.add(journal.KCommit, 1, 2, 0, 0, 0)
	v = Run(b.j, NewSerializable(true))
	wantViolations(t, v, "serializable", 0)

	// A restart clears the attempt's buffered ops: the committed second
	// attempt contains only its own ops.
	b = newJB()
	b.add(journal.KOp, 0, 1, 1, 2, 0) // attempt 1: W x
	b.add(journal.KRestart, 0, 1, 0, 1, 0)
	b.add(journal.KOp, 0, 2, 1, 2, 0) // t2 W x
	b.add(journal.KOp, 0, 2, 2, 2, 0) // t2 W y
	b.add(journal.KCommit, 0, 2, 0, 0, 0)
	b.add(journal.KOp, 0, 1, 2, 2, 0) // attempt 2: W y only
	b.add(journal.KOp, 0, 1, 1, 2, 0) // then W x
	b.add(journal.KCommit, 0, 1, 0, 0, 0)
	v = Run(b.j, NewSerializable(false))
	wantViolations(t, v, "serializable", 0)
}

func TestCompareCommitSets(t *testing.T) {
	a := newJB()
	a.add(journal.KCommit, 0, 1, 0, 0, 0)
	a.add(journal.KCommit, 0, 2, 0, 0, 0)
	c := newJB()
	c.add(journal.KCommit, 0, 2, 0, 0, 0)
	c.add(journal.KCommit, 0, 3, 0, 0, 0)
	onlyA, onlyB := CompareCommitSets(a.j, c.j)
	if len(onlyA) != 1 || onlyA[0] != 1 {
		t.Fatalf("onlyA = %v, want [1]", onlyA)
	}
	if len(onlyB) != 1 || onlyB[0] != 3 {
		t.Fatalf("onlyB = %v, want [3]", onlyB)
	}
}

func TestForManagerSelection(t *testing.T) {
	names := func(auds []Auditor) map[string]bool {
		m := make(map[string]bool)
		for _, a := range auds {
			m[a.Name()] = true
		}
		return m
	}
	to := names(ForManager("TO"))
	if len(to) != 1 || !to["serializable"] {
		t.Fatalf("TO auditors = %v, want serializability only", to)
	}
	pcp := names(ForManager("PCP"))
	for _, want := range []string{"serializable", "strict-two-phase", "lock-safety", "deadlock-free", "pcp-blocked-at-most-once"} {
		if !pcp[want] {
			t.Fatalf("PCP auditors missing %s: %v", want, pcp)
		}
	}
	plain := names(ForManager("2PL"))
	if plain["deadlock-free"] {
		t.Fatal("plain 2PL can deadlock by design; the auditor must not apply")
	}
	global := names(ForPlacement("global"))
	if !global["twopc-consistent"] || global["pcp-blocked-at-most-once"] {
		t.Fatalf("global auditors = %v", global)
	}
}

// TestSerializableCostIndependentOfEarlierRuns: what an audit allocates
// depends only on its journal. A history recycled across runs made the
// cost depend on whether the previous run's history was still cached
// for the processor the next run started on, so equal runs differed by
// a whole history.
//
// TotalAlloc counts the whole process, so the window runs on one
// processor with the collector paused. Otherwise what the runtime
// allocates for itself, on other processors or for a collection, lands
// in the window now and then: in 300 audits in a row, 1 to 7 read 16 B
// to 5 KB over the steady cost, with or without the race detector and
// with memory profiling off. On one processor with the collector
// paused, all 300 read the same but the first, 192 B over.
func TestSerializableCostIndependentOfEarlierRuns(t *testing.T) {
	b := newJB()
	for tx := int64(1); tx <= 400; tx++ {
		for k := int64(0); k < 8; k++ {
			b.add(journal.KOp, 0, tx, int32((tx*3+k)%50), 1+(tx+k)%2, 0)
		}
		b.add(journal.KCommit, 0, tx, 0, 0, 0)
	}
	cost := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		wantViolations(t, Run(b.j, NewSerializable(false)), "serializable", 0)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cold := cost()
	warm := cost()
	if diff := max(cold, warm) - min(cold, warm); diff*100 > cold {
		t.Fatalf("audit after an identical one allocated %d B, first %d B", warm, cold)
	}
}
