package metrics

import (
	"strings"
	"testing"

	"rtlock/internal/journal"
)

// contendedJournal builds a synthetic journal in which low-priority tx1
// holds object 7 while high-priority tx2 waits (a priority inversion),
// and tx3 then waits on tx2 transitively through object 8.
func contendedJournal() *journal.Journal {
	j := journal.New(1, "test")
	j.Append(0, journal.KArrive, 0, 1, -1, 5000, 0, "") // late deadline: low priority
	j.Append(0, journal.KArrive, 0, 2, -1, 1000, 0, "") // early deadline: high priority
	j.Append(0, journal.KArrive, 0, 3, -1, 2000, 0, "")

	j.Append(10, journal.KLockRequest, 0, 1, 7, 0, 0, "")
	j.Append(10, journal.KLockGrant, 0, 1, 7, 0, 0, "")
	j.Append(20, journal.KLockRequest, 0, 2, 7, 0, 0, "")
	j.Append(20, journal.KLockBlock, 0, 2, 7, 1, 0, "") // tx2 waits on holder tx1
	j.Append(30, journal.KLockRequest, 0, 3, 8, 0, 0, "")
	j.Append(30, journal.KLockBlock, 0, 3, 8, 2, 0, "") // tx3 waits on blocked tx2

	j.Append(50, journal.KLockRelease, 0, 1, 7, 0, 0, "")
	j.Append(50, journal.KLockGrant, 0, 2, 7, 0, 0, "") // tx2 waited 30
	j.Append(60, journal.KLockGrant, 0, 3, 8, 0, 0, "") // tx3 waited 30
	j.Append(80, journal.KLockRelease, 0, 2, 7, 0, 0, "")

	j.Append(90, journal.KWound, 0, 1, -1, 0, 0, "")
	j.Append(90, journal.KRestart, 0, 1, -1, 0, 0, "")
	j.Append(95, journal.KDeadlineMiss, 0, 3, -1, 0, 0, "")
	j.Append(99, journal.KDeadlineMiss, 0, 2, -1, 0, 0, "crashed")
	return j
}

func TestFromJournalAggregates(t *testing.T) {
	p := FromJournal(contendedJournal(), 0)
	if len(p.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(p.Objects))
	}
	// Object 7 collected the most waiting time and sorts first.
	o := p.Objects[0]
	if o.Obj != 7 {
		t.Fatalf("hottest object = %d, want 7", o.Obj)
	}
	if o.Requests != 2 || o.Grants != 2 || o.Releases != 2 || o.Blocks != 1 {
		t.Errorf("obj7 req/grant/rel/block = %d/%d/%d/%d, want 2/2/2/1",
			o.Requests, o.Grants, o.Releases, o.Blocks)
	}
	if o.WaitTicks != 30 || o.MaxWaitTicks != 30 {
		t.Errorf("obj7 wait=%d max=%d, want 30/30", o.WaitTicks, o.MaxWaitTicks)
	}
	// tx1 held 10..50, tx2 held 50..80.
	if o.HoldTicks != 70 {
		t.Errorf("obj7 hold = %d, want 70", o.HoldTicks)
	}
	// tx2 (deadline 1000) waited on tx1 (deadline 5000): inversion.
	if o.InversionTicks != 30 {
		t.Errorf("obj7 inversion = %d, want 30", o.InversionTicks)
	}
	if p.ChainMax != 3 {
		t.Errorf("chain max = %d, want 3 (tx1 <- tx2 <- tx3)", p.ChainMax)
	}
	if p.TotalObjects != 2 || p.TotalWaitTicks != 60 || p.TotalHoldTicks != 70 {
		t.Errorf("totals objects/wait/hold = %d/%d/%d, want 2/60/70",
			p.TotalObjects, p.TotalWaitTicks, p.TotalHoldTicks)
	}
}

func TestFromJournalStacks(t *testing.T) {
	p := FromJournal(contendedJournal(), 0)
	got := make(map[string]int64)
	for _, s := range p.Stacks {
		got[s.Stack] = s.Ticks
	}
	if got["tx1;tx2@obj7"] != 30 {
		t.Errorf("direct chain = %d, want 30 (stacks: %v)", got["tx1;tx2@obj7"], p.Stacks)
	}
	if got["tx1;tx2@obj7;tx3@obj8"] != 30 {
		t.Errorf("transitive chain = %d, want 30 (stacks: %v)", got["tx1;tx2@obj7;tx3@obj8"], p.Stacks)
	}
	folded := string(p.Folded())
	if !strings.Contains(folded, "tx1;tx2@obj7;tx3@obj8 30\n") {
		t.Errorf("folded export missing transitive chain:\n%s", folded)
	}
}

func TestFromJournalCauses(t *testing.T) {
	p := FromJournal(contendedJournal(), 0)
	want := []CauseCount{
		{Cause: "deadline_miss", Count: 1},
		{Cause: "restart", Count: 1},
		{Cause: "site_crash", Count: 1},
		{Cause: "wound", Count: 1},
	}
	if len(p.Causes) != len(want) {
		t.Fatalf("causes = %v, want %v", p.Causes, want)
	}
	for i, c := range p.Causes {
		if c != want[i] {
			t.Errorf("cause[%d] = %v, want %v", i, c, want[i])
		}
	}
}

func TestFromJournalTopK(t *testing.T) {
	p := FromJournal(contendedJournal(), 1)
	if len(p.Objects) != 1 || p.Objects[0].Obj != 7 {
		t.Fatalf("topK=1 objects = %v, want just obj 7", p.Objects)
	}
	if p.TotalObjects != 2 || p.TotalWaitTicks != 60 {
		t.Errorf("totals must cover every object: objects=%d wait=%d", p.TotalObjects, p.TotalWaitTicks)
	}
}

func TestFromJournalNil(t *testing.T) {
	p := FromJournal(nil, 0)
	if p == nil || len(p.Objects) != 0 || len(p.Stacks) != 0 || p.TopK != 10 {
		t.Fatalf("nil journal profile = %+v", p)
	}
	if got := p.String(); !strings.Contains(got, "0 objects contended") {
		t.Errorf("empty profile report: %q", got)
	}
	var none *Profile
	if got := none.Folded(); len(got) != 0 {
		t.Errorf("nil profile Folded: %q", got)
	}
}

// recoveryJournal layers crash-recovery traffic on a journal: two
// outages (one closed, one still open at journal end), a WAL redo, and
// a resolve-retry run that exhausts.
func recoveryJournal() *journal.Journal {
	j := journal.New(1, "test")
	j.Append(100, journal.KSiteCrash, 1, -1, -1, 0, 0, "")
	j.Append(400, journal.KSiteRecover, 1, -1, -1, 0, 0, "")
	j.Append(410, journal.KWALRedo, 1, -1, -1, 2, 0, "")
	j.Append(500, journal.KSiteCrash, 2, -1, -1, 0, 0, "") // never recovers
	j.Append(520, journal.KRetry, 0, 9, -1, 1, 0, "resolve")
	j.Append(560, journal.KRetry, 0, 9, -1, 2, 0, "resolve")
	j.Append(640, journal.KRetryExhausted, 0, 9, -1, 2, 0, "resolve")
	return j
}

func TestFromJournalRecovery(t *testing.T) {
	p := FromJournal(recoveryJournal(), 0)
	r := p.Recovery
	if r.Crashes != 2 || r.Recoveries != 1 {
		t.Errorf("crashes/recoveries = %d/%d, want 2/1", r.Crashes, r.Recoveries)
	}
	// Only the closed outage (100..400) accrues downtime; the open one
	// has no recovery record to close it.
	if r.DownTicks != 300 || r.MaxDownTicks != 300 {
		t.Errorf("down/maxdown = %d/%d, want 300/300", r.DownTicks, r.MaxDownTicks)
	}
	if r.RedoVotes != 2 {
		t.Errorf("redo votes = %d, want 2", r.RedoVotes)
	}
	if r.Retries != 2 || r.RetryExhausted != 1 {
		t.Errorf("retries/exhausted = %d/%d, want 2/1", r.Retries, r.RetryExhausted)
	}
	out := p.String()
	if !strings.Contains(out, "recovery: crashes=2 recoveries=1") ||
		!strings.Contains(out, "redo_votes=2 retries=2 exhausted=1") {
		t.Errorf("report missing recovery line:\n%s", out)
	}
	// Fault-free runs stay silent: no recovery noise in their reports.
	if out := FromJournal(contendedJournal(), 0).String(); strings.Contains(out, "recovery:") {
		t.Errorf("fault-free report grew a recovery line:\n%s", out)
	}
}

func TestHTMLRecoverySection(t *testing.T) {
	html := func(prof *Profile) string {
		var b strings.Builder
		if err := WriteHTML(&b, "t", nil, prof, nil); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	page := html(FromJournal(recoveryJournal(), 0))
	if !strings.Contains(page, "Crash recovery") {
		t.Fatalf("HTML report missing recovery section:\n%s", page)
	}
	for _, cell := range []string{"<td>2</td>", "<td>0.3</td>"} {
		if !strings.Contains(page, cell) {
			t.Errorf("HTML recovery table missing %q:\n%s", cell, page)
		}
	}
	if page := html(FromJournal(contendedJournal(), 0)); strings.Contains(page, "Crash recovery") {
		t.Errorf("fault-free HTML report grew a recovery section")
	}
}

func TestProfileStringNamesHotObjects(t *testing.T) {
	p := FromJournal(contendedJournal(), 10)
	out := p.String()
	if !strings.Contains(out, "2 objects contended") {
		t.Errorf("report header wrong:\n%s", out)
	}
	for _, col := range []string{"site", "obj", "wait_ms", "maxwait_ms"} {
		if !strings.Contains(out, col) {
			t.Errorf("report missing column %q:\n%s", col, out)
		}
	}
	if !strings.Contains(out, "cause wound") {
		t.Errorf("report missing cause tally:\n%s", out)
	}
}
