package stats

import (
	"strings"
	"testing"

	"rtlock/internal/journal"
)

// traced tees a fresh trace of the given capacity onto a discarding
// journal, so tests feed it exactly as a run does.
func traced(capacity int) (*journal.Journal, *Trace) {
	tr := NewTrace(capacity)
	j := journal.New(1, "trace-test")
	j.Tee(true, tr)
	return j, tr
}

func TestTraceRecordsInOrder(t *testing.T) {
	j, tr := traced(0)
	j.Append(10, journal.KArrive, 0, 1, -1, 500, 0, "")
	j.Append(20, journal.KLockRequest, 0, 1, 5, 2, 0, "")
	j.Append(30, journal.KArrive, 0, 2, -1, 900, 0, "")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].Kind != journal.KLockRequest || evs[1].Obj != 5 || evs[1].At != 20 {
		t.Fatalf("event = %+v", evs[1])
	}
}

func TestTraceKeepsOnlyTransactionRecords(t *testing.T) {
	j, tr := traced(0)
	j.Append(0, journal.KSpawn, 0, 7, -1, 0, 0, "tx1")
	j.Append(0, journal.KArrive, 0, 1, -1, 500, 0, "")
	j.Append(0, journal.KRegister, 0, 1, -1, 0, 0, "")
	j.Append(0, journal.KCPUDispatch, 0, 7, -1, 10, 0, "")
	j.Append(5, journal.KCommit, 0, 1, -1, 0, 0, "")
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != journal.KArrive || evs[1].Kind != journal.KCommit {
		t.Fatalf("events = %+v", evs)
	}
}

func TestTraceCapBounds(t *testing.T) {
	j, tr := traced(2)
	for i := 0; i < 5; i++ {
		j.Append(int64(i), journal.KArrive, 0, int64(i), -1, 100, 0, "")
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", tr.Len())
	}
}

func TestTraceTimeline(t *testing.T) {
	j, tr := traced(0)
	j.Append(1, journal.KArrive, 0, 1, -1, 100, 0, "")
	j.Append(2, journal.KArrive, 0, 2, -1, 100, 0, "")
	j.Append(3, journal.KCommit, 0, 1, -1, 0, 0, "")
	tl := tr.Timeline(1)
	if len(tl) != 2 || tl[1].Kind != journal.KCommit {
		t.Fatalf("timeline = %+v", tl)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.Len() != 0 || tr.Events() != nil || tr.Timeline(1) != nil || tr.String() != "" {
		t.Fatal("nil trace misbehaved")
	}
}

// TestTraceGrantCarriesBlockedInterval: a grant reports the time since
// the same transaction's request; an immediate grant reports none.
func TestTraceGrantCarriesBlockedInterval(t *testing.T) {
	j, tr := traced(0)
	j.Append(0, journal.KLockRequest, 0, 1, 3, 2, 0, "")
	j.Append(0, journal.KLockGrant, 0, 1, 3, 2, 0, "")
	j.Append(500, journal.KLockRequest, 0, 7, 3, 2, 0, "")
	j.Append(500, journal.KLockBlock, 0, 7, 3, 1, 1, "")
	j.Append(1500, journal.KLockGrant, 0, 7, 3, 2, 0, "")
	evs := tr.Events()
	if evs[1].Blocked != 0 || evs[4].Blocked != 1000 {
		t.Fatalf("blocked = %v, %v; want 0, 1000", evs[1].Blocked, evs[4].Blocked)
	}
	lines := strings.Split(strings.TrimSuffix(tr.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), tr.String())
	}
	for i, want := range []string{
		"tx1    lockreq   obj3    W",
		"tx1    lockgrant obj3    W",
		"tx7    lockreq   obj3    W",
		"tx7    lockblock obj3    ceiling by tx1",
		"tx7    lockgrant obj3    W blocked 1.0ms",
	} {
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("line %d = %q, want suffix %q", i, lines[i], want)
		}
	}
}

func TestTraceString(t *testing.T) {
	j, tr := traced(0)
	j.Append(1500, journal.KArrive, 0, 7, -1, 40000, 0, "")
	j.Append(2000, journal.KRestart, 0, 7, -1, 0, 0, "")
	j.Append(3000, journal.KDeadlineMiss, 0, 7, -1, 0, 0, "crashed")
	want := "     1.500ms tx7    arrive    deadline=40.0ms\n" +
		"     2.000ms tx7    restart   attempt=0\n" +
		"     3.000ms tx7    miss      crashed\n"
	if got := tr.String(); got != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", got, want)
	}
}
