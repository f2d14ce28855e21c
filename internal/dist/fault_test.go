package dist

// Crash–recovery and degradation behavior under the deterministic
// fault injector: attach-time validation, fault-free equivalence of the
// empty plan, crash semantics (resident kills, crashed-home arrivals),
// GCM failover, and the 2PC safety scenarios the presumed-abort
// hardening exists for. The 2PC scenarios are self-calibrating: a
// fault-free baseline run supplies the protocol instants, and each
// crash plan is built around them.

import (
	"errors"
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

func TestAttachFaultsValidates(t *testing.T) {
	c, err := NewCluster(cfg(Local, sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	bad := &faults.Plan{Crashes: []faults.Crash{{Site: 9, At: 0}}}
	if err := c.AttachFaults(faults.New(bad, 1)); err == nil {
		t.Fatal("out-of-range crash site accepted")
	}
}

// faultTestLoad is a small cross-site mix: local and remote writes (2PC
// participants), plus a read-only transaction.
func faultTestLoad() []*workload.Txn {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	return []*workload.Txn{
		mkDistTxn(1, 0, 0, ms(900), []workload.Op{{Obj: 1, Mode: core.Write}, {Obj: 11, Mode: core.Write}}),
		mkDistTxn(2, 1, ms(3), ms(900), []workload.Op{{Obj: 12, Mode: core.Write}}),
		mkDistTxn(3, 2, ms(6), ms(900), []workload.Op{{Obj: 21, Mode: core.Read}, {Obj: 2, Mode: core.Read}}),
		mkDistTxn(4, 2, ms(9), ms(900), []workload.Op{{Obj: 22, Mode: core.Write}, {Obj: 3, Mode: core.Write}}),
	}
}

func TestAttachEmptyPlanJournalIdentical(t *testing.T) {
	for _, a := range []Mode{Global, Local} {
		run := func(attach bool) *journal.Journal {
			conf := cfg(a, 5*sim.Millisecond)
			conf.Journal = journal.New(1, "fault-free-eq")
			c, err := NewCluster(conf)
			if err != nil {
				t.Fatal(err)
			}
			if attach {
				if err := c.AttachFaults(faults.New(&faults.Plan{}, 7)); err != nil {
					t.Fatal(err)
				}
			}
			c.Load(faultTestLoad())
			c.Run()
			return conf.Journal
		}
		plain, attached := run(false), run(true)
		if plain.Hash() != attached.Hash() {
			t.Errorf("%s: empty fault plan perturbed the journal:\n%s",
				a, journal.Diff(plain, attached))
		}
	}
}

func TestCrashKillsResidentAndArrivalsMiss(t *testing.T) {
	conf := cfg(Local, 5*sim.Millisecond)
	conf.Journal = journal.New(1, "crash-kill")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 0, At: 5 * int64(sim.Millisecond), RecoverAt: 100 * int64(sim.Millisecond),
	}}}
	if err := c.AttachFaults(faults.New(plan, 1)); err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c.Load([]*workload.Txn{
		// Resident at site 0 when it crashes at 5ms (10ms of CPU).
		mkDistTxn(1, 0, 0, ms(500), []workload.Op{{Obj: 1, Mode: core.Write}}),
		// Arrives at the crashed home: an immediate miss.
		mkDistTxn(2, 0, ms(10), ms(500), []workload.Op{{Obj: 2, Mode: core.Write}}),
		// Arrives after recovery: unaffected.
		mkDistTxn(3, 0, ms(200), ms(500), []workload.Op{{Obj: 3, Mode: core.Write}}),
	})
	sum := c.Run()
	if sum.Committed != 1 || sum.Missed != 2 {
		t.Fatalf("summary: %+v, want 1 committed (post-recovery) and 2 missed", sum)
	}
	var crash, recover bool
	for _, r := range conf.Journal.Records() {
		switch r.Kind {
		case journal.KSiteCrash:
			crash = true
		case journal.KSiteRecover:
			recover = true
		}
	}
	if !crash || !recover {
		t.Fatalf("crash=%t recover=%t, want both journaled", crash, recover)
	}
	if vs := audit.Run(conf.Journal, audit.ForFaults("local")...); len(vs) > 0 {
		t.Fatalf("auditors: %v", vs)
	}
}

// TestEvictedRegistrationStaysEvicted: a state a crash evicted never
// goes back to the cluster's pool, so a request on the evicted
// registration is still refused after another transaction has
// registered at the same manager. Tx 1 (home 0) runs at site 1 when
// site 0 crashes, and site 1 evicts its registration; tx 2 then
// registers at site 1. Had tx 1's state gone back to the pool — at the
// eviction, or at tx 1's end before a discharge ran — tx 2 would hold
// it, and the manager would take the evicted registration for tx 2's.
func TestEvictedRegistrationStaysEvicted(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c, err := NewCluster(cfg(Shard, 2*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Crashes: []faults.Crash{{Site: 0, At: int64(ms(8))}}}
	if err := c.AttachFaults(faults.New(plan, 1)); err != nil {
		t.Fatal(err)
	}
	c.Load([]*workload.Txn{
		mkDistTxn(1, 0, 0, ms(500), []workload.Op{{Obj: 13, Mode: core.Write}}),
		mkDistTxn(2, 1, ms(30), ms(500), []workload.Op{{Obj: 14, Mode: core.Write}}),
	})
	var evicted regEntry // tx 1's registration at site 1
	c.K.At(ms(4), func() { evicted = c.fault[1].reg[1] })
	probe := errors.New("never probed")
	c.K.At(ms(35), func() { // tx 2 holds object 14 at site 1
		x := &txRun{}
		c.K.Start(&x.proc, "probe", func(*sim.Proc) {
			probe = c.acquire(x, &evicted.pin, workload.Op{Obj: 15, Mode: core.Write})
		})
	})
	c.Run()
	if evicted.st == nil {
		t.Fatal("tx 1 never registered at site 1")
	}
	if !errors.Is(probe, ErrShardEvicted) {
		t.Fatalf("a request on the evicted registration returned %v, want ErrShardEvicted", probe)
	}
}

func TestGCMFailoverDuringCrash(t *testing.T) {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.GCMSite = 0
	conf.Journal = journal.New(1, "gcm-failover")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 0, At: 2 * int64(sim.Millisecond), RecoverAt: 100 * int64(sim.Millisecond),
	}}}
	if err := c.AttachFaults(faults.New(plan, 1)); err != nil {
		t.Fatal(err)
	}
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	c.Load([]*workload.Txn{
		// Arrives during the GCM outage; home-local writes, so the
		// failover manager alone can serve it.
		mkDistTxn(1, 1, ms(5), ms(500), []workload.Op{{Obj: 12, Mode: core.Write}, {Obj: 13, Mode: core.Write}}),
		// Arrives after recovery: back on the global manager.
		mkDistTxn(2, 1, ms(200), ms(500), []workload.Op{{Obj: 14, Mode: core.Write}}),
	})
	sum := c.Run()
	if sum.Committed != 2 {
		t.Fatalf("summary: %+v, want both committed", sum)
	}
	var failover1, failover2 bool
	for _, r := range conf.Journal.Records() {
		if r.Kind == journal.KFailover {
			switch r.Tx {
			case 1:
				failover1 = true
			case 2:
				failover2 = true
			}
		}
	}
	if !failover1 {
		t.Error("tx 1 ran during the outage without a KFailover record")
	}
	if failover2 {
		t.Error("tx 2 arrived after recovery but still used the failover manager")
	}
	if v := c.Store(1).Read(12); v.Seq == 0 {
		t.Error("failover-managed write missing from the primary store")
	}
	if vs := audit.Run(conf.Journal, audit.ForFaults("global")...); len(vs) > 0 {
		t.Fatalf("auditors: %v", vs)
	}
}

// --- self-calibrating 2PC crash scenarios ---

// twopcConf is the shared configuration: home 1 is also the GCM site
// (locking is free there), and the single write on object 20 makes
// site 2 the lone 2PC participant.
func twopcConf() Config {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.GCMSite = 1
	return conf
}

func twopcTxn() *workload.Txn {
	return mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 20, Mode: core.Write}})
}

// twopcBaseline runs fault-free and returns the journal tick of the
// first prepare, the participant's vote, and the participant's
// decision. WAL bookkeeping costs no simulated time, so a faulted run
// replays these instants exactly up to the first injected fault.
func twopcBaseline(t *testing.T) (prepAt, voteAt, decAt int64) {
	t.Helper()
	conf := twopcConf()
	conf.Journal = journal.New(1, "twopc-baseline")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	c.Load([]*workload.Txn{twopcTxn()})
	if sum := c.Run(); sum.Committed != 1 {
		t.Fatalf("baseline summary: %+v", sum)
	}
	for _, r := range conf.Journal.Records() {
		switch {
		case r.Kind == journal.KTwoPCPrepare && prepAt == 0:
			prepAt = r.At
		case r.Kind == journal.KTwoPCVote && r.Site == 2 && voteAt == 0:
			voteAt = r.At
		case r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.Note == "" && decAt == 0:
			decAt = r.At
		}
	}
	if prepAt == 0 || voteAt == 0 || decAt == 0 {
		t.Fatalf("baseline journal missing 2PC instants: prepare=%d vote=%d decision=%d", prepAt, voteAt, decAt)
	}
	return prepAt, voteAt, decAt
}

// twopcScenario runs the calibrated transaction under a plan and
// checks the safety invariants every scenario must satisfy: the fault
// auditors hold, and the participant's store reflects object 20's
// write exactly when some site recorded a commit decision.
func twopcScenario(t *testing.T, name string, plan *faults.Plan) *journal.Journal {
	t.Helper()
	conf := twopcConf()
	conf.Journal = journal.New(1, "twopc-"+name)
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(faults.New(plan, 1)); err != nil {
		t.Fatal(err)
	}
	c.Load([]*workload.Txn{twopcTxn()})
	c.Run()
	j := conf.Journal
	if vs := audit.Run(j, audit.ForFaults("global")...); len(vs) > 0 {
		t.Fatalf("%s: auditors: %v", name, vs)
	}
	committed := false
	for _, r := range j.Records() {
		if r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.A == 1 {
			committed = true
		}
	}
	if applied := c.Store(2).Read(20).Seq != 0; applied != committed {
		t.Fatalf("%s: participant store applied=%t but commit decision=%t", name, applied, committed)
	}
	return j
}

func countKind(j *journal.Journal, k journal.Kind) int {
	n := 0
	for _, r := range j.Records() {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func TestTwoPCParticipantCrashBeforeVote(t *testing.T) {
	_, voteAt, _ := twopcBaseline(t)
	// Down one tick before the prepare arrives; back long after every
	// retry has burned out, so the coordinator presumes abort.
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 2, At: voteAt - 1, RecoverAt: voteAt + 600*int64(sim.Millisecond),
	}}}
	j := twopcScenario(t, "part-pre-vote", plan)
	if n := countKind(j, journal.KSiteCrash); n != 1 {
		t.Fatalf("KSiteCrash records = %d", n)
	}
	// The participant never voted, so recovery replays an empty log.
	for _, r := range j.Records() {
		if r.Kind == journal.KWALRedo && r.A != 0 {
			t.Fatalf("recovery restored %d pending votes, want 0: %+v", r.A, r)
		}
		if r.Kind == journal.KTwoPCDecision && r.A == 1 {
			t.Fatalf("commit decided against a crashed, unvoted participant: %+v", r)
		}
	}
	if countKind(j, journal.KRetry) == 0 {
		t.Error("coordinator never retried the unanswered prepare")
	}
}

func TestTwoPCParticipantCrashAfterVote(t *testing.T) {
	_, voteAt, _ := twopcBaseline(t)
	// Crash just after the forced vote leaves; the decision in flight is
	// lost, so recovery must redo the WAL and resolve with the
	// coordinator — which logged commit.
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 2, At: voteAt + 1, RecoverAt: voteAt + 100*int64(sim.Millisecond),
	}}}
	j := twopcScenario(t, "part-post-vote", plan)
	redo := false
	for _, r := range j.Records() {
		if r.Kind == journal.KWALRedo && r.Site == 2 {
			redo = true
			if r.A != 1 {
				t.Fatalf("WAL redo restored %d pending votes, want the forced vote", r.A)
			}
		}
	}
	if !redo {
		t.Fatal("no KWALRedo after participant recovery")
	}
	resolved := false
	for _, r := range j.Records() {
		if r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.Note == "resolved" {
			resolved = true
			if r.A != 1 {
				t.Fatalf("resolution returned abort for a logged commit: %+v", r)
			}
		}
	}
	if !resolved {
		t.Fatal("prepared participant never resolved its in-doubt transaction")
	}
}

func TestTwoPCCoordinatorCrashBeforeDecision(t *testing.T) {
	_, voteAt, _ := twopcBaseline(t)
	// The coordinator dies while the vote is in flight: it can never
	// decide, its log stays empty, and the prepared participant must
	// end at abort by presumption — never a unilateral one.
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 1, At: voteAt + 2*int64(sim.Millisecond), RecoverAt: voteAt + 200*int64(sim.Millisecond),
	}}}
	j := twopcScenario(t, "coord-pre-decision", plan)
	for _, r := range j.Records() {
		if r.Kind == journal.KTwoPCDecision && r.A == 1 {
			t.Fatalf("commit decision from a coordinator that crashed undecided: %+v", r)
		}
	}
	// The participant held its prepared state until resolution: the
	// abort must come from the resolver, not a local timeout guess.
	resolvedAbort := false
	for _, r := range j.Records() {
		if r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.Note == "resolved" && r.A == 0 {
			resolvedAbort = true
		}
	}
	if !resolvedAbort {
		t.Fatal("participant never resolved to the presumed abort")
	}
}

func TestTwoPCCoordinatorCrashAfterDecision(t *testing.T) {
	_, _, decAt := twopcBaseline(t)
	// The commit decision is logged and shipped before the coordinator
	// dies; the participant must still install it.
	plan := &faults.Plan{Crashes: []faults.Crash{{
		Site: 1, At: decAt - 4*int64(sim.Millisecond), RecoverAt: decAt + 200*int64(sim.Millisecond),
	}}}
	j := twopcScenario(t, "coord-post-decision", plan)
	committed := false
	for _, r := range j.Records() {
		if r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.A == 1 {
			committed = true
		}
	}
	if !committed {
		t.Fatal("decided commit was lost with the coordinator")
	}
}

func TestTwoPCPartitionDuringPrepare(t *testing.T) {
	prepAt, _, _ := twopcBaseline(t)
	// Isolate the participant one tick after the prepare leaves (any
	// earlier also cuts the operation hop still returning from site 2,
	// which lands on the same tick the prepare departs): the in-flight
	// prepare is lost to the arrival re-check, and the partition heals
	// before the coordinator's first retry, which must then succeed.
	plan := &faults.Plan{Partitions: []faults.Partition{{
		GroupA: []int{2}, At: prepAt + 1, HealAt: prepAt + 20*int64(sim.Millisecond),
	}}}
	j := twopcScenario(t, "partition-prepare", plan)
	cutDrop, retried, committed := false, false, false
	for _, r := range j.Records() {
		switch r.Kind {
		case journal.KMsgDrop:
			if r.B == 2 { // netsim.DropCut
				cutDrop = true
			}
		case journal.KRetry:
			if r.Note == "prepare" {
				retried = true
			}
		case journal.KTwoPCDecision:
			if r.Site == 2 && r.A == 1 {
				committed = true
			}
		}
	}
	if !cutDrop {
		t.Error("no message was dropped by the partition")
	}
	if !retried {
		t.Error("coordinator never re-sent the lost prepare")
	}
	if !committed {
		t.Error("transaction failed to commit after the partition healed")
	}
	if countKind(j, journal.KPartition) != 1 || countKind(j, journal.KHeal) != 1 {
		t.Error("partition open/heal not journaled")
	}
}

// TestTwoPCPreparedShareOutlivesRun: a participant keeps its share of
// the write set past the coordinator's transaction. The partition
// drops the commit decision, so the participant stays prepared while
// the coordinator commits, and its run goes back to the pool; the next
// transaction at that home reuses the run's access-set scratch for a
// write of its own. When the partition heals, the participant resolves
// the commit and must install object 20, its share, not what the
// scratch holds by then.
func TestTwoPCPreparedShareOutlivesRun(t *testing.T) {
	_, _, decAt := twopcBaseline(t)
	conf := twopcConf()
	conf.Journal = journal.New(1, "twopc-share")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Partitions: []faults.Partition{{
		GroupA: []int{2}, At: decAt - 1, HealAt: decAt + 100*int64(sim.Millisecond),
	}}}
	if err := c.AttachFaults(faults.New(plan, 1)); err != nil {
		t.Fatal(err)
	}
	next := mkDistTxn(2, 1, sim.Time(decAt)+sim.Time(5*sim.Millisecond), sim.Time(2*sim.Second),
		[]workload.Op{{Obj: 10, Mode: core.Write}})
	c.Load([]*workload.Txn{twopcTxn(), next})
	if sum := c.Run(); sum.Committed != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	resolved := false
	for _, r := range conf.Journal.Records() {
		if r.Kind == journal.KTwoPCDecision && r.Site == 2 && r.Note == "resolved" && r.A == 1 {
			resolved = true
		}
	}
	if !resolved {
		t.Fatal("the participant did not resolve the commit after the partition healed")
	}
	if c.Store(2).Read(20).Seq == 0 {
		t.Fatal("the resolved commit did not install object 20 at the participant")
	}
	if v := c.Store(2).Read(10); v.Seq != 0 {
		t.Fatalf("the participant installed object 10, another transaction's write: %+v", v)
	}
}
