package dist

import (
	"errors"
	"fmt"
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
)

// twopcCounter fetches a 2PC probe handle (no-op without a registry).
func (c *Cluster) twopcCounter(name, help string, labels ...metrics.Label) sim.Counter {
	return c.K.Metrics().Counter(name, help, labels...)
}

// observeInDoubt feeds one settled participant's in-doubt window length
// to the histogram.
func (c *Cluster) observeInDoubt(pt *preparedTx) {
	if d := c.K.Now().Sub(pt.at); d >= 0 {
		c.K.Metrics().Histogram("twopc_indoubt_ticks",
			"In-doubt windows of prepared participants, in ticks.", nil).Observe(int64(d))
	}
}

// Two-phase commit over the message servers: the coordinator (the
// transaction's process at its home site) sends prepare messages to
// every participant, parks until all votes return, then ships the
// decision without waiting — the paper's transaction manager "executes
// the two-phase commit protocol to ensure that a transaction commits or
// aborts globally".
//
// With a fault plan attached the protocol hardens to presumed-abort:
// participants force their yes-votes to the write-ahead log (becoming
// prepared — no unilateral abort afterwards), the coordinator forces
// commit decisions before shipping them and retries unanswered prepares
// with bounded doubling backoff, and a prepared participant whose
// decision never arrives resolves it with the coordinator's site —
// which answers from its log, or "pending" while the vote round is
// still open, or abort by presumption.
const (
	preparePort  = "2pc-prepare"
	votePort     = "2pc-vote"
	decisionPort = "2pc-decision"
	resolvePort  = "2pc-resolve"
	resolvedPort = "2pc-resolved"
)

// 2PC message bodies. The hot-path ones are carved from the cluster's
// slabs; the coordinator, or the voting participant, is the envelope's
// From.
type prepareMsg struct {
	txID int64
	objs []core.ObjectID
}

type voteMsg struct {
	txID   int64
	commit bool
}

type decisionMsg struct {
	txID   int64
	commit bool
}

// resolveMsg asks a coordinator's site for a transaction's outcome.
type resolveMsg struct {
	txID int64
}

// Resolution statuses carried by resolvedMsg.
const (
	statusAbort   = 0
	statusCommit  = 1
	statusPending = 2
)

type resolvedMsg struct {
	txID   int64
	status int
}

// voteCollector gathers one transaction's votes at the coordinator.
// Votes are deduplicated per participant so injected duplicates and
// retry re-votes cannot satisfy the count early. Each run keeps one and
// reuses it, and its token, round after round.
type voteCollector struct {
	tx    int64
	need  int
	voted []db.SiteID // participants whose yes-vote arrived
	tok   sim.Token
}

// closeVoteRound is the collector token's cancel hook, armed with the
// run: a coordinator interrupted mid-round stops collecting, so late
// votes are ignored.
func closeVoteRound(a any) {
	x := a.(*txRun)
	delete(x.c.twopc, x.votes.tx)
}

// errPhaseTimeout unparks a coordinator whose vote round went
// unanswered; it retries or presumes abort.
var errPhaseTimeout = errors.New("dist: 2pc phase timed out")

// phaseTimedOut is the vote round's timer: it wakes the coordinator's
// token with errPhaseTimeout.
func phaseTimedOut(tok any) { tok.(*sim.Token).Wake(errPhaseTimeout) }

// twoPCRetries bounds the coordinator's prepare re-sends and a recovering
// participant's decision-resolution attempts when a fault plan is
// attached.
const twoPCRetries = 3

// backoff is the doubling retry timeout: base<<attempt, at most 8×base
// under the retry budget.
func backoff(base sim.Duration, attempt int) sim.Duration { return base << uint(attempt) }

// registerTwoPCHandlers wires prepare/vote/decision ports at every site.
func (c *Cluster) registerTwoPCHandlers() {
	for _, s := range c.sites {
		s := s
		srv := c.Net.Server(s.id)
		srv.Handle(preparePort, func(m netsim.Message) {
			msg, ok := m.Payload.(*prepareMsg)
			if !ok {
				return
			}
			c.handlePrepare(s.id, m.From, msg)
		})
		srv.Handle(votePort, func(m netsim.Message) {
			msg, ok := m.Payload.(*voteMsg)
			if !ok {
				return
			}
			col, ok := c.twopc[msg.txID]
			if !ok {
				return // coordinator aborted; late vote ignored
			}
			if !msg.commit {
				col.tok.Wake(errVoteAbort)
				return
			}
			if slices.Contains(col.voted, m.From) {
				return // duplicate (injected copy or retry re-vote)
			}
			col.voted = append(col.voted, m.From)
			if len(col.voted) >= col.need {
				col.tok.Wake(nil)
			}
		})
		srv.Handle(decisionPort, func(m netsim.Message) {
			if msg, ok := m.Payload.(*decisionMsg); ok {
				c.decisions++
				c.twopcCounter("twopc_decisions_total", "2PC decisions learned, by role.",
					metrics.L("role", "participant")).Inc()
				c.emit(s.id, journal.KTwoPCDecision, msg.txID, 0, b2i(msg.commit), 0, "")
				if c.faultsOn {
					c.applyDecision(s.id, msg.txID, msg.commit)
				}
			}
		})
		srv.Handle(resolvePort, func(m netsim.Message) {
			msg, ok := m.Payload.(resolveMsg)
			if !ok || !c.faultsOn {
				return
			}
			// Presumed-abort resolution at the coordinator's site: a
			// logged commit answers commit; an open vote round answers
			// pending; everything else is an abort by presumption.
			status := statusAbort
			if commit, known := c.fault[s.id].wal.Decision(msg.txID); known && commit {
				status = statusCommit
			} else if _, active := c.twopc[msg.txID]; active {
				status = statusPending
			}
			c.Net.Send(s.id, m.From, resolvedPort, resolvedMsg{txID: msg.txID, status: status})
		})
		srv.Handle(resolvedPort, func(m netsim.Message) {
			msg, ok := m.Payload.(resolvedMsg)
			if !ok || !c.faultsOn {
				return
			}
			switch msg.status {
			case statusCommit, statusAbort:
				commit := msg.status == statusCommit
				c.decisions++
				c.twopcCounter("twopc_decisions_total", "2PC decisions learned, by role.",
					metrics.L("role", "participant")).Inc()
				c.emit(s.id, journal.KTwoPCDecision, msg.txID, 0, b2i(commit), 0, "resolved")
				c.applyDecision(s.id, msg.txID, commit)
			case statusPending:
				if tok := c.resolveTok[resolveKey{site: s.id, tx: msg.txID}]; tok != nil {
					tok.Wake(errPhaseTimeout)
				}
			}
		})
	}
}

// handlePrepare is a participant's side of the vote round, for a
// prepare from the coordinator's site, coord.
func (c *Cluster) handlePrepare(siteID, coord db.SiteID, msg *prepareMsg) {
	if c.faultsOn {
		if commit, known := c.fault[siteID].wal.Decision(msg.txID); known {
			// Already settled here (duplicate prepare after the
			// decision): restate the outcome without re-voting.
			c.Net.Send(siteID, coord, votePort, c.bodies.vote.new(voteMsg{txID: msg.txID, commit: commit}))
			return
		}
		if c.fault[siteID].prepared[msg.txID] != nil {
			// Duplicate prepare while in doubt: the vote is already
			// forced; just re-send it.
			c.emit(siteID, journal.KTwoPCVote, msg.txID, 0, 1, 1, "dup")
			c.Net.Send(siteID, coord, votePort, c.bodies.vote.new(voteMsg{txID: msg.txID, commit: true}))
			return
		}
	}
	// Memory-resident participants have no log force in the fault-free
	// mode; they vote immediately. A configured VoteFault lets tests
	// force the abort vote this site would otherwise never cast.
	commit := c.cfg.VoteFault == nil || !c.cfg.VoteFault(siteID, msg.txID)
	voteLabel := metrics.L("vote", "abort")
	if commit {
		voteLabel = metrics.L("vote", "commit")
	}
	c.twopcCounter("twopc_votes_total", "2PC votes cast by participants, by outcome.", voteLabel).Inc()
	c.emit(siteID, journal.KTwoPCVote, msg.txID, 0, b2i(commit), 0, "")
	if c.faultsOn && commit {
		// Force the vote: from here on this participant is prepared
		// and may only learn the outcome, never presume it.
		c.twopcCounter("wal_forces_total", "WAL forces, by record kind.", metrics.L("kind", "vote")).Inc()
		if c.cfg.WALForceFault == nil || !c.cfg.WALForceFault(siteID, msg.txID) {
			c.fault[siteID].wal.AppendVote(msg.txID, c.K.Now(), int(coord), msg.objs)
		}
		pt := &preparedTx{coord: coord, objs: msg.objs, at: c.K.Now()}
		c.fault[siteID].prepared[msg.txID] = pt
		site, tx := siteID, msg.txID
		pt.timeout = c.K.After(2*c.phaseTimeout(siteID, coord), func() {
			c.spawnResolver(site, tx)
		})
	}
	c.Net.Send(siteID, coord, votePort, c.bodies.vote.new(voteMsg{txID: msg.txID, commit: commit}))
}

// applyDecision settles an in-doubt transaction at a participant:
// the outcome is logged, the writes install on commit, and any waiting
// resolver is released. Unprepared (or already settled) participants
// ignore it.
func (c *Cluster) applyDecision(siteID db.SiteID, tx int64, commit bool) {
	f := &c.fault[siteID]
	pt := f.prepared[tx]
	if pt == nil {
		return
	}
	c.twopcCounter("wal_forces_total", "WAL forces, by record kind.", metrics.L("kind", "decision")).Inc()
	f.wal.AppendDecision(tx, commit)
	c.observeInDoubt(pt)
	pt.timeout.Cancel()
	delete(f.prepared, tx)
	if commit {
		for _, obj := range pt.objs {
			c.sites[siteID].store.Write(obj, tx, c.K.Now())
		}
	}
	if tok := c.resolveTok[resolveKey{site: siteID, tx: tx}]; tok != nil {
		tok.Wake(nil)
	}
}

// spawnResolver starts a bounded resolution loop for one in-doubt
// transaction: ask the coordinator's site, back off, retry. On
// exhaustion the participant stays prepared — it never unilaterally
// aborts — awaiting a duplicate decision or the next recovery.
func (c *Cluster) spawnResolver(siteID db.SiteID, tx int64) {
	key := resolveKey{site: siteID, tx: tx}
	if c.resolveTok[key] != nil {
		return // already resolving
	}
	pt := c.fault[siteID].prepared[tx]
	if pt == nil || c.fault[siteID].crashed {
		return
	}
	coord := pt.coord
	c.resolveTok[key] = &sim.Token{} // reserve before the proc first runs
	name := ""
	if c.K.Journal() != nil {
		name = fmt.Sprintf("resolve-%d@%d", tx, siteID)
	}
	c.K.Spawn(name, func(p *sim.Proc) {
		defer delete(c.resolveTok, key)
		for attempt := 0; attempt <= twoPCRetries; attempt++ {
			if c.fault[siteID].prepared[tx] == nil || c.fault[siteID].crashed {
				return // settled meanwhile, or we crashed again
			}
			if attempt > 0 {
				c.twopcCounter("twopc_retries_total", "2PC retry rounds, by phase.",
					metrics.L("phase", "resolve")).Inc()
			}
			c.emit(siteID, journal.KRetry, tx, 0, int64(attempt), 0, "resolve")
			c.Net.Send(siteID, coord, resolvePort, resolveMsg{txID: tx})
			tok := &sim.Token{}
			c.resolveTok[key] = tok
			tev := c.K.After(backoff(c.phaseTimeout(siteID, coord), attempt), func() {
				tok.Wake(errPhaseTimeout)
			})
			err := p.Park(tok)
			tev.Cancel()
			if err == nil {
				// Decision arrived and was applied.
				c.K.Metrics().Histogram("twopc_resolve_rounds",
					"Resolution rounds a recovered participant needed to settle an in-doubt transaction.",
					resolveRoundBounds).Observe(int64(attempt) + 1)
				return
			}
			if !errors.Is(err, errPhaseTimeout) {
				return // shutdown or crash interrupt
			}
		}
		// Exhausted: the participant stays prepared (it never presumes),
		// awaiting a duplicate decision or the next recovery. Journaled
		// so the liveness auditor can tell graceful degradation from a
		// resolver that silently gave up.
		if c.fault[siteID].prepared[tx] != nil && !c.fault[siteID].crashed {
			c.twopcCounter("twopc_retry_exhausted_total",
				"Bounded retry loops that consumed every attempt, by phase.",
				metrics.L("phase", "resolve")).Inc()
			c.emit(siteID, journal.KRetryExhausted, tx, 0, twoPCRetries+1, 0, "resolve")
		}
	})
}

// resolveRoundBounds buckets the in-doubt resolution round histogram.
var resolveRoundBounds = []int64{1, 2, 3, 4, 6, 8}

// phaseTimeout is the per-phase 2PC timeout for one link: 4× the link
// delay plus 10ms (mirroring the network's synchronous time-out
// default).
func (c *Cluster) phaseTimeout(a, b db.SiteID) sim.Duration {
	return 4*c.Net.Delay(a, b) + 10*sim.Millisecond
}

// errVoteAbort would flow from a participant voting no; with
// memory-resident participants it never fires but the path is wired.
var errVoteAbort = errDecisionAbort{}

type errDecisionAbort struct{}

func (errDecisionAbort) Error() string { return "dist: participant voted abort" }

// runTwoPC coordinates commit across the participants — the remote
// primaries the transaction wrote, ascending; a transaction that wrote
// only at home commits message-free. Prepares go out in parallel (each
// carrying its participant's share of the write set when shares is
// set), the coordinator parks for the votes, and decisions ship without
// waiting. It returns nil when every vote arrived, or the error that
// aborted the coordinator mid-protocol (deadline, crash, exhausted
// retries); the decision is shipped to every participant unless the
// coordinator's own site crashed — then it is left to presumed-abort
// resolution.
func (c *Cluster) runTwoPC(x *txRun, shares bool) error {
	p, home, txID := &x.proc, x.t.Home, x.t.ID
	participants := make([]db.SiteID, 0, 4)
	for _, obj := range x.writes {
		owner := c.Catalog.PrimarySite(obj)
		if i, found := slices.BinarySearch(participants, owner); owner != home && !found {
			participants = slices.Insert(participants, i, owner)
		}
	}
	if len(participants) == 0 {
		return nil
	}
	c.twopcCounter("twopc_rounds_total", "Two-phase commits coordinated.").Inc()
	// Schedule exploration may rotate the prepare fan-out (and hence the
	// canonical vote arrival order): any rotation of the participant
	// list is a legal coordinator behavior.
	if r := c.K.Choose(sim.ChooseVote, len(participants)); r != 0 {
		rot := make([]db.SiteID, 0, len(participants))
		rot = append(rot, participants[r:]...)
		rot = append(rot, participants[:r]...)
		participants = rot
	}
	started := c.K.Now()
	col := &x.votes
	col.tx, col.need, col.voted = txID, len(participants), col.voted[:0]
	c.twopc[txID] = col
	var maxd sim.Duration
	for _, s := range participants {
		if d := c.Net.Delay(home, s); d > maxd {
			maxd = d
		}
	}
	base := 4*maxd + 10*sim.Millisecond
	attempts := 1
	if c.faultsOn {
		attempts = 1 + twoPCRetries
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.twopcCounter("twopc_retries_total", "2PC retry rounds, by phase.",
				metrics.L("phase", "prepare")).Inc()
			c.emit(home, journal.KRetry, txID, 0, int64(attempt), 0, "prepare")
		}
		for _, s := range participants {
			if slices.Contains(col.voted, s) {
				continue // already has this participant's yes-vote
			}
			x.msgs += 2 // prepare out, vote back
			c.emit(home, journal.KTwoPCPrepare, txID, 0, int64(s), int64(attempt), "")
			var objs []core.ObjectID
			if shares {
				// A copy: the participant keeps its share past this
				// transaction, whose sets are its run's scratch.
				objs = slices.Clone(c.ownedBy(x.writes, s))
			}
			c.Net.Send(home, s, preparePort, c.bodies.prepare.new(prepareMsg{txID: txID, objs: objs}))
		}
		col.tok.Reset()
		col.tok.SetCancel(closeVoteRound, x)
		var tev sim.EventRef
		if c.faultsOn {
			// Doubling backoff per retry round.
			tev = c.K.AfterCall(backoff(base, attempt), phaseTimedOut, &col.tok)
		}
		err = p.Park(&col.tok)
		tev.Cancel()
		if err == nil {
			break
		}
		if !c.faultsOn || !errors.Is(err, errPhaseTimeout) {
			break // abort vote, deadline, crash, shutdown
		}
		if len(col.voted) >= col.need {
			// The last vote landed as the timer fired.
			err = nil
			break
		}
	}
	delete(c.twopc, txID)
	if c.faultsOn && errors.Is(err, errPhaseTimeout) {
		// Prepare retries exhausted: degrade to presumed abort below
		// instead of waiting forever, and journal the exhaustion.
		c.twopcCounter("twopc_retry_exhausted_total",
			"Bounded retry loops that consumed every attempt, by phase.",
			metrics.L("phase", "prepare")).Inc()
		c.emit(home, journal.KRetryExhausted, txID, 0, int64(attempts), 0, "prepare")
	}
	commit := err == nil
	if commit {
		c.K.Metrics().Histogram("twopc_roundtrip_ticks",
			"Vote-round durations at the coordinator (prepare out to last vote in), in ticks.",
			nil).Observe(int64(c.K.Now().Sub(started)))
	}
	if c.faultsOn && errors.Is(err, ErrSiteCrashed) {
		// The coordinator's site crashed: it cannot decide or ship.
		// Prepared participants resolve against its log — which has no
		// commit record — and presume abort.
		return err
	}
	if c.faultsOn && commit {
		// Presumed-abort: only the commit decision is forced to the
		// coordinator's log (aborts are presumed from its absence).
		c.twopcCounter("wal_forces_total", "WAL forces, by record kind.", metrics.L("kind", "decision")).Inc()
		c.fault[home].wal.AppendDecision(txID, true)
	}
	c.twopcCounter("twopc_decisions_total", "2PC decisions learned, by role.",
		metrics.L("role", "coord")).Inc()
	c.emit(home, journal.KTwoPCDecision, txID, 0, b2i(commit), 0, "coord")
	for _, s := range participants {
		x.msgs++
		c.Net.Send(home, s, decisionPort, c.bodies.decision.new(decisionMsg{txID: txID, commit: commit}))
	}
	return err
}
