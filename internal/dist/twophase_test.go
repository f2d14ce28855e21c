package dist

// Abort and timeout paths of the two-phase commit protocol. The
// VoteFault hook injects participant abort votes that memory-resident
// participants would otherwise never cast; site failures exercise the
// paper's time-out mechanism as the coordinator's escape hatch.

import (
	"testing"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// twopcJournalKinds extracts (kind, a) pairs for 2PC records of one tx.
func twopcVotes(j *journal.Journal, tx int64) (commitVotes, abortVotes, decisions, commitDecisions int) {
	for _, r := range j.Records() {
		if r.Tx != tx {
			continue
		}
		switch r.Kind {
		case journal.KTwoPCVote:
			if r.A == 1 {
				commitVotes++
			} else {
				abortVotes++
			}
		case journal.KTwoPCDecision:
			if r.Note == "coord" {
				continue
			}
			decisions++
			if r.A == 1 {
				commitDecisions++
			}
		}
	}
	return
}

func TestTwoPCParticipantAbortVote(t *testing.T) {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.Journal = journal.New(1, "twophase-test")
	conf.VoteFault = func(site db.SiteID, txID int64) bool { return site == 2 && txID == 1 }
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// A write at site 2's primary from home 1 makes site 2 a 2PC
	// participant, and its injected abort vote must doom the commit.
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{{Obj: 20, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 0 {
		t.Fatalf("summary: %+v — transaction committed over an abort vote", sum)
	}
	if v := c.Store(2).Read(20); v.Seq != 0 {
		t.Fatalf("aborted write reached the primary store: %+v", v)
	}
	if c.TwoPCDecisions() != 1 {
		t.Fatalf("decisions = %d, want 1 abort decision", c.TwoPCDecisions())
	}
	cv, av, dec, cd := twopcVotes(conf.Journal, 1)
	if cv != 0 || av != 1 || dec != 1 || cd != 0 {
		t.Fatalf("journal: commitVotes=%d abortVotes=%d decisions=%d commitDecisions=%d", cv, av, dec, cd)
	}
	if vs := audit.Run(conf.Journal, audit.NewTwoPCConsistent()); len(vs) > 0 {
		t.Fatalf("2PC auditor: %v", vs)
	}
}

func TestTwoPCMixedVotes(t *testing.T) {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.GCMSite = 1 // keep locking free for the home site
	conf.Journal = journal.New(1, "twophase-test")
	conf.VoteFault = func(site db.SiteID, txID int64) bool { return site == 0 }
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// Two remote write participants: site 2 votes commit, site 0 votes
	// abort. The coordinator must decide abort for both.
	tx := mkDistTxn(1, 1, 0, sim.Time(sim.Second), []workload.Op{
		{Obj: 20, Mode: core.Write}, // primary site 2, votes commit
		{Obj: 0, Mode: core.Write},  // primary site 0, votes abort
	})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 0 {
		t.Fatalf("summary: %+v — mixed votes must abort", sum)
	}
	if v := c.Store(2).Read(20); v.Seq != 0 {
		t.Fatalf("write applied at the commit-voting participant: %+v", v)
	}
	if v := c.Store(0).Read(0); v.Seq != 0 {
		t.Fatalf("write applied at the abort-voting participant: %+v", v)
	}
	if c.TwoPCDecisions() != 2 {
		t.Fatalf("decisions = %d, want abort delivered to both participants", c.TwoPCDecisions())
	}
	cv, av, dec, cd := twopcVotes(conf.Journal, 1)
	if cv != 1 || av != 1 || dec != 2 || cd != 0 {
		t.Fatalf("journal: commitVotes=%d abortVotes=%d decisions=%d commitDecisions=%d", cv, av, dec, cd)
	}
	if vs := audit.Run(conf.Journal, audit.NewTwoPCConsistent()); len(vs) > 0 {
		t.Fatalf("2PC auditor: %v", vs)
	}
}

func TestTwoPCParticipantDownTimesOut(t *testing.T) {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.GCMSite = 1
	conf.Journal = journal.New(1, "twophase-test")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// Site 2 goes down just before the prepare round: the prepare is
	// dropped, no vote ever returns, and the parked coordinator is
	// unblocked only by its deadline — the paper's time-out mechanism.
	c.FailSite(2, sim.Time(25*sim.Millisecond), 0)
	tx := mkDistTxn(1, 1, 0, sim.Time(200*sim.Millisecond), []workload.Op{{Obj: 20, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 0 || sum.Missed != 1 {
		t.Fatalf("summary: %+v — coordinator must abort via deadline timeout", sum)
	}
	rec := c.Monitor.Records()[0]
	if rec.Finish != sim.Time(200*sim.Millisecond) {
		t.Fatalf("aborted at %v, want the 200ms deadline", rec.Finish)
	}
	if c.Net.DroppedDown == 0 {
		t.Fatal("no message was dropped toward the down participant")
	}
	if v := c.Store(2).Read(20); v.Seq != 0 {
		t.Fatalf("write applied without a commit decision: %+v", v)
	}
	if vs := audit.Run(conf.Journal, audit.NewTwoPCConsistent()); len(vs) > 0 {
		t.Fatalf("2PC auditor: %v", vs)
	}
}

func TestTwoPCLateVoteIgnored(t *testing.T) {
	conf := cfg(Global, 5*sim.Millisecond)
	conf.GCMSite = 1
	conf.Journal = journal.New(1, "twophase-test")
	c, err := NewCluster(conf)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline lands while the votes are in flight: the coordinator
	// aborts mid-protocol, deletes its vote collector, and the commit
	// vote arriving afterwards must be ignored without resurrecting the
	// transaction. With the GCM at the home site the ops finish at 20ms
	// and the vote returns at 30ms; the deadline hits at 28ms.
	tx := mkDistTxn(1, 1, 0, sim.Time(28*sim.Millisecond), []workload.Op{{Obj: 20, Mode: core.Write}})
	c.Load([]*workload.Txn{tx})
	sum := c.Run()
	if sum.Committed != 0 || sum.Missed != 1 {
		t.Fatalf("summary: %+v", sum)
	}
	cv, _, dec, cd := twopcVotes(conf.Journal, 1)
	if cv != 1 {
		t.Fatalf("participant should have voted commit before the abort, got %d votes", cv)
	}
	if dec != 1 || cd != 0 {
		t.Fatalf("decisions=%d commitDecisions=%d, want one abort decision", dec, cd)
	}
	if v := c.Store(2).Read(20); v.Seq != 0 {
		t.Fatalf("write applied after coordinator abort: %+v", v)
	}
	if vs := audit.Run(conf.Journal, audit.NewTwoPCConsistent()); len(vs) > 0 {
		t.Fatalf("2PC auditor: %v", vs)
	}
}
