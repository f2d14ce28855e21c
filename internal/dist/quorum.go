package dist

import (
	"slices"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/netsim"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// Quorum mode's replication rounds. Reads gather R replica versions;
// committed writes push new versions to the replicas and wait for W
// acknowledgements while the write lock is still held — so R+W > K makes
// every read quorum intersect the latest write quorum (the
// audit.QuorumIntersection invariant).

// Quorum replication rounds run over these message-server ports.
const (
	qreadPort      = "quorum-read"
	qreadReplyPort = "quorum-read-reply"
	qwritePort     = "quorum-write"
	qackPort       = "quorum-write-ack"
)

// Quorum message bodies, carved from the cluster's slabs. The sender
// is the envelope's From; a write names the coordinator the replica
// acknowledges to, which is the transaction's home, not the sender.
type qreadMsg struct {
	txID int64
	obj  core.ObjectID
}

type qreadReply struct {
	txID int64
	obj  core.ObjectID
	seq  int64
}

type qwriteMsg struct {
	txID  int64
	obj   core.ObjectID
	coord db.SiteID
	v     db.Version
}

type qackMsg struct {
	txID int64
	obj  core.ObjectID
}

// quorumKey identifies one open replication round; kind keeps a late
// read reply from counting toward a later write round of the same
// object.
type quorumKey struct {
	tx   int64
	obj  core.ObjectID
	kind int // 0 read, 1 write
}

// quorumRound gathers one round's replies at the transaction's home.
// Replies are deduplicated per site so injected duplicates cannot
// satisfy the quorum early. A transaction has at most one round open, so
// each run keeps one and reuses it.
type quorumRound struct {
	need   int
	got    []db.SiteID // replicas that answered
	maxSeq int64
	tok    sim.Token
}

// registerQuorumHandlers wires the replication round ports at every
// site: replica-side version serves and installs, home-side reply and
// acknowledgement collection.
func (c *Cluster) registerQuorumHandlers() {
	for _, s := range c.sites {
		s := s
		srv := c.Net.Server(s.id)
		srv.Handle(qreadPort, func(m netsim.Message) {
			msg, ok := m.Payload.(*qreadMsg)
			if !ok {
				return
			}
			c.Net.Send(s.id, m.From, qreadReplyPort,
				c.bodies.qreply.new(qreadReply{txID: msg.txID, obj: msg.obj, seq: s.store.Read(msg.obj).Seq}))
		})
		srv.Handle(qreadReplyPort, func(m netsim.Message) {
			if msg, ok := m.Payload.(*qreadReply); ok {
				c.quorumReply(quorumKey{tx: msg.txID, obj: msg.obj, kind: 0}, m.From, msg.seq)
			}
		})
		srv.Handle(qwritePort, func(m netsim.Message) {
			msg, ok := m.Payload.(*qwriteMsg)
			if !ok {
				return
			}
			s.store.Install(msg.obj, msg.v)
			c.Net.Send(s.id, msg.coord, qackPort, c.bodies.qack.new(qackMsg{txID: msg.txID, obj: msg.obj}))
		})
		srv.Handle(qackPort, func(m netsim.Message) {
			if msg, ok := m.Payload.(*qackMsg); ok {
				c.quorumReply(quorumKey{tx: msg.txID, obj: msg.obj, kind: 1}, m.From, 0)
			}
		})
	}
}

// quorumReply counts one replica's answer toward its open round (a
// settled round ignores it, as does one that already heard from that
// replica) and wakes the transaction once the quorum is complete.
func (c *Cluster) quorumReply(key quorumKey, from db.SiteID, seq int64) {
	round := c.qrounds[key]
	if round == nil || slices.Contains(round.got, from) {
		return
	}
	round.got = append(round.got, from)
	if seq > round.maxSeq {
		round.maxSeq = seq
	}
	if len(round.got) >= round.need {
		round.tok.Wake(nil)
	}
}

// gather sends msg from site from to every replica of key.obj but its
// primary (a request out and an answer back: two messages each) and parks
// until need of them answered; with need zero it only sends. It reports
// how many answered and the newest version seen, starting from seq. There
// is no per-round timer: a round starved by failures parks until the
// transaction's deadline interrupt, which is the liveness backstop for
// every mode.
func (c *Cluster) gather(x *txRun, key quorumKey, from db.SiteID, port string, msg any, need int, seq int64) (int, int64, error) {
	var round *quorumRound
	if need > 0 {
		round = &x.round
		round.need, round.got, round.maxSeq = need, round.got[:0], seq
		round.tok.Reset()
		c.qrounds[key] = round
		defer delete(c.qrounds, key)
	}
	for _, rep := range c.Catalog.Replicas(key.obj)[1:] {
		x.msgs += 2
		c.Net.Send(from, rep, port, msg)
	}
	if round == nil {
		return 0, seq, nil
	}
	if err := x.proc.Park(&round.tok); err != nil {
		return 0, seq, err
	}
	return len(round.got), round.maxSeq, nil
}

// readRound gathers an R-sized read quorum for a read while its lock is
// held at the primary, owner. The primary's copy — just read by the op
// itself — counts as the first reply, so R=1 needs no messages.
func readRound(c *Cluster, x *txRun, op workload.Op, owner db.SiteID) error {
	if op.Mode != core.Read {
		return nil
	}
	t, obj := x.t, op.Obj
	seq := c.sites[owner].store.Read(obj).Seq
	replies := 1
	if r := c.Catalog.Placement().ReadQuorum(); r > 1 {
		got, newest, err := c.gather(x, quorumKey{tx: t.ID, obj: obj, kind: 0}, t.Home,
			qreadPort, c.bodies.qread.new(qreadMsg{txID: t.ID, obj: obj}), r-1, seq)
		if err != nil {
			return err
		}
		replies, seq = replies+got, newest
	}
	c.mQuorumReads.Inc()
	c.emit(owner, journal.KQuorumRead, t.ID, int32(obj), seq, int64(replies), "")
	return nil
}

// quorumWrite installs a committed write at the object's primary and
// replicates it to the other replicas, waiting for a W-sized write
// quorum before reporting the round. It runs before the write locks are
// released, so the quorum-committed version is in place at W replicas
// before any later reader's quorum can form — the intersection
// invariant the auditor checks.
func (c *Cluster) quorumWrite(x *txRun, obj core.ObjectID) error {
	t := x.t
	owner := c.Catalog.PrimarySite(obj)
	v := c.sites[owner].store.Write(obj, t.ID, x.proc.Now())
	got, _, err := c.gather(x, quorumKey{tx: t.ID, obj: obj, kind: 1}, owner,
		qwritePort, c.bodies.qwrite.new(qwriteMsg{txID: t.ID, obj: obj, coord: t.Home, v: v}), c.Catalog.Placement().WriteQuorum()-1, 0)
	if err != nil {
		return err
	}
	c.mQuorumWrites.Inc()
	c.emit(owner, journal.KQuorumWrite, t.ID, int32(obj), v.Seq, int64(1+got), "") // 1: the primary's own install
	return nil
}
