// Package netsim simulates the distributed environment of the paper's
// prototyping environment: a Message Server per site listening on a
// well-known port, with messages placed on the destination's queue after
// a communication delay, plus a synchronous hop primitive for
// rendezvous-style interactions. Intra-site communication does not go
// through the message server (processes exchange directly), matching the
// paper.
//
// Of the paper's Message Server only two things reach the metrics: the
// communication delay and the serialization of deliveries. Both are
// kept with kernel events alone. An arrival appends to the site's queue
// and, unless one is already pending, schedules a drain event at the
// current instant; the drain hands every queued message to its port's
// handler, one at a time. Handlers therefore run in event context
// (Kernel.Current is nil) and must never park. The server still spawns
// one process per site, which parks until Shutdown: it holds the pid
// and the spawn/end journal records the golden journals pin.
package netsim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
)

// ErrSiteDown unblocks a sender whose destination site is not
// operational — the paper's "if the receiving site is not operational, a
// time-out mechanism will unblock the sender process".
var ErrSiteDown = errors.New("netsim: destination site is down")

// Message is one inter-site message.
type Message struct {
	From, To    db.SiteID
	Port        string
	Payload     any
	SentAt      sim.Time
	DeliveredAt sim.Time
}

// Handler consumes a delivered message. Handlers run in event context
// (Kernel.Current is nil), inside the destination server's drain, and
// must never park: work that waits (lock acquisition, CPU, a reply)
// must be spawned into its own process.
type Handler func(msg Message)

// FaultInjector decides per-message fates for the fault-injection
// subsystem (internal/faults). Deliveries is consulted once per
// inter-site message, in deterministic kernel order: nil means the
// message is dropped, otherwise each entry is one delivered copy's
// extra delay (a single zero entry is a normal delivery).
type FaultInjector interface {
	Deliveries(now sim.Time, from, to db.SiteID) []sim.Duration
}

// Drop reasons recorded in KMsgDrop's B field.
const (
	// DropDown: the destination (or source) site was down.
	DropDown int64 = 1
	// DropCut: the link was cut by a partition.
	DropCut int64 = 2
	// DropFault: the fault injector rolled a message loss.
	DropFault int64 = 3
)

// Network connects the sites and counts traffic. A zero delay still
// defers delivery through the event queue, preserving deterministic
// ordering. The default is a fully connected network with a uniform
// delay; NewNetworkTopology accepts ring, star, or custom interconnects.
type Network struct {
	k       *sim.Kernel
	delay   sim.Duration
	topo    *Topology
	servers map[db.SiteID]*Server // started in this run
	// dormant holds the servers earlier runs built that this run has
	// not started; sites lists every site with a server, ascending.
	dormant  map[db.SiteID]*Server
	sites    []db.SiteID
	down     map[db.SiteID]bool
	cut      map[[2]db.SiteID]int
	injector FaultInjector

	// Timeout is how long a synchronous sender waits before a down
	// destination unblocks it with ErrSiteDown (zero picks a default
	// of 4× the path delay plus 10ms).
	Timeout sim.Duration

	// Sent counts all inter-site messages (intra-site sends are free
	// and uncounted, as in the paper).
	Sent int
	// DroppedDown counts messages discarded because an endpoint site
	// was down (at send or delivery time).
	DroppedDown int
	// DroppedCut counts messages discarded because the link was cut
	// by a partition.
	DroppedCut int
	// DroppedFault counts messages the fault injector dropped.
	DroppedFault int
	// Duplicated counts extra copies the fault injector delivered.
	Duplicated int
	// HopsArrived counts synchronous hops that reached their
	// destination; a message server counts the asynchronous messages it
	// delivers.
	HopsArrived int
	// HopsAborted counts synchronous hops whose sender was interrupted
	// in flight (a deadline abort), which neither arrive nor are lost.
	HopsAborted int

	// freeInflight recycles delivered in-flight records.
	freeInflight []*inflight

	// Probe handles, cached at construction (no-ops without a
	// registry). Per-link latency histograms are cached on first
	// delivery over the link, because their label set depends on the
	// endpoints.
	mSent      sim.Counter
	mDelivered sim.Counter
	mDup       sim.Counter
	mDropDown  sim.Counter
	mDropCut   sim.Counter
	mDropFault sim.Counter
	mInflight  sim.Gauge
	mLatency   map[[2]db.SiteID]sim.Histogram
}

// inflight is one message copy on the wire: the argument of its
// delivery event, recycled when the event fires.
type inflight struct {
	n   *Network
	msg Message
}

// NewNetwork returns a fully connected network with the given inter-site
// delay.
func NewNetwork(k *sim.Kernel, delay sim.Duration) *Network {
	n := &Network{k: k, delay: delay, servers: make(map[db.SiteID]*Server), dormant: make(map[db.SiteID]*Server),
		down: make(map[db.SiteID]bool), cut: make(map[[2]db.SiteID]int)}
	n.Reset()
	return n
}

// NewNetworkTopology returns a network whose pairwise delays come from
// the topology.
func NewNetworkTopology(k *sim.Kernel, topo *Topology) *Network {
	n := &Network{k: k, topo: topo, servers: make(map[db.SiteID]*Server), dormant: make(map[db.SiteID]*Server),
		down: make(map[db.SiteID]bool), cut: make(map[[2]db.SiteID]int)}
	n.Reset()
	return n
}

// Reset returns the network to the state its constructor leaves it in,
// for a new run on its kernel, which has been reset: every site up, no
// cut, no injector, counters at zero, probe handles taken afresh. Its
// delays and Timeout are kept, and so are its servers with their
// handlers, but each lies dormant — it has no process — until the next
// call to Server for its site starts it, as the first call built it:
// a run sees the servers it starts, in the order it starts them, as if
// they were new.
func (n *Network) Reset() {
	for _, site := range n.sites {
		if s, ok := n.servers[site]; ok {
			s.reset()
			n.dormant[site] = s
			delete(n.servers, site)
		}
	}
	clear(n.down)
	clear(n.cut)
	clear(n.mLatency)
	n.injector = nil
	n.Sent, n.DroppedDown, n.DroppedCut, n.DroppedFault, n.Duplicated = 0, 0, 0, 0, 0
	n.HopsArrived, n.HopsAborted = 0, 0
	n.initProbes()
}

func (n *Network) initProbes() {
	m := n.k.Metrics()
	n.mSent = m.Counter("net_msgs_sent_total", "Inter-site messages put on the wire (including hops).")
	n.mDelivered = m.Counter("net_msgs_delivered_total", "Messages delivered to a site's message server.")
	n.mDup = m.Counter("net_msgs_duplicated_total", "Extra message copies the fault injector delivered.")
	n.mDropDown = m.Counter("net_msgs_dropped_total", "Messages lost in transit, by reason.", metrics.L("reason", "down"))
	n.mDropCut = m.Counter("net_msgs_dropped_total", "Messages lost in transit, by reason.", metrics.L("reason", "cut"))
	n.mDropFault = m.Counter("net_msgs_dropped_total", "Messages lost in transit, by reason.", metrics.L("reason", "fault"))
	n.mInflight = m.Gauge("net_inflight", "Asynchronous message copies currently in transit.")
}

// observeLatency feeds one delivered copy's transit time to the
// per-link latency histogram.
func (n *Network) observeLatency(from, to db.SiteID, d sim.Duration) {
	m := n.k.Metrics()
	if m == nil {
		return
	}
	key := [2]db.SiteID{from, to}
	h, ok := n.mLatency[key]
	if !ok {
		if n.mLatency == nil {
			n.mLatency = make(map[[2]db.SiteID]sim.Histogram)
		}
		h = m.Histogram("net_latency_ticks", "Message transit times per directed link, in ticks.",
			nil, metrics.L("link", fmt.Sprintf("%d->%d", from, to)))
		n.mLatency[key] = h
	}
	h.Observe(int64(d))
}

// SetDown marks a site as non-operational (or back up). Messages
// delivered to a down site are dropped; synchronous hops toward it time
// out with ErrSiteDown.
func (n *Network) SetDown(site db.SiteID, down bool) { n.down[site] = down }

// Down reports whether a site is non-operational.
func (n *Network) Down(site db.SiteID) bool { return n.down[site] }

// SetInjector installs (or, with nil, removes) the per-message fault
// source. A nil injector is the fault-free fast path: no fate rolls,
// no extra records.
func (n *Network) SetInjector(inj FaultInjector) { n.injector = inj }

// SetCut opens or closes a symmetric cut on the link between two sites
// (both directions). Cuts nest: overlapping partitions each add one
// layer and the link heals when the last layer lifts.
func (n *Network) SetCut(a, b db.SiteID, cut bool) {
	if a == b {
		return
	}
	if b < a {
		a, b = b, a
	}
	key := [2]db.SiteID{a, b}
	if cut {
		n.cut[key]++
		return
	}
	if n.cut[key] > 0 {
		n.cut[key]--
	}
	if n.cut[key] == 0 {
		delete(n.cut, key)
	}
}

// Cut reports whether the link between two sites is severed by a
// partition.
func (n *Network) Cut(a, b db.SiteID) bool {
	if a == b {
		return false
	}
	if b < a {
		a, b = b, a
	}
	return n.cut[[2]db.SiteID{a, b}] > 0
}

// Reachable reports whether a message from one site can currently
// arrive at the other: both endpoints up and the link uncut.
func (n *Network) Reachable(from, to db.SiteID) bool {
	return !n.down[from] && !n.down[to] && !n.Cut(from, to)
}

// Delay returns the one-way communication delay between two sites.
func (n *Network) Delay(from, to db.SiteID) sim.Duration {
	if from == to {
		return 0
	}
	if n.topo != nil {
		return n.topo.Delay(from, to)
	}
	return n.delay
}

// Server returns the message server of a site, starting it on its first
// use in a run.
func (n *Network) Server(site db.SiteID) *Server {
	s, ok := n.servers[site]
	if !ok {
		s = n.start(site)
	}
	return s
}

// start starts the process of site's server, which a run uses for the
// first time: a dormant one, on the process it kept, or one built now.
func (n *Network) start(site db.SiteID) *Server {
	s, ok := n.dormant[site]
	if ok {
		delete(n.dormant, site)
	} else {
		s = &Server{k: n.k, site: site, name: "msgserver-" + strconv.Itoa(int(site)), handlers: make(map[string]Handler)}
		s.idle = func(p *sim.Proc) { _ = p.Park(&s.tok) }
		n.sites = append(n.sites, site)
		slices.Sort(n.sites)
	}
	s.tok.Reset()
	n.k.Start(&s.proc, s.name, s.idle)
	n.servers[site] = s
	return s
}

// Lookup returns a site's message server, or nil if none was started
// in this run.
func (n *Network) Lookup(site db.SiteID) *Server { return n.servers[site] }

// Send queues a message for delivery to the destination site's message
// server after the communication delay. Intra-site sends dispatch
// directly (still via the event queue, so ordering stays deterministic).
// Inter-site messages pass the fault path: a down endpoint, a cut link,
// or an injected fault can drop (or duplicate, or delay) the message,
// each loss journaled as a KMsgDrop record.
func (n *Network) Send(from, to db.SiteID, port string, payload any) {
	msg := Message{From: from, To: to, Port: port, Payload: payload, SentAt: n.k.Now()}
	if from != to {
		n.Sent++
		n.mSent.Inc()
	}
	n.k.Journal().Append(int64(n.k.Now()), journal.KMsgSend, int32(from), 0, 0, int64(to), 0, port)
	d := n.Delay(from, to)
	if from != to {
		switch {
		case n.down[from]:
			// A crashed source never gets the message onto the wire.
			n.dropMsg(from, to, DropDown, port)
			return
		case n.Cut(from, to):
			n.dropMsg(from, to, DropCut, port)
			return
		}
		if n.injector != nil {
			fates := n.injector.Deliveries(n.k.Now(), from, to)
			if len(fates) == 0 {
				n.dropMsg(from, to, DropFault, port)
				return
			}
			if len(fates) > 1 {
				n.Duplicated += len(fates) - 1
				n.mDup.Add(int64(len(fates) - 1))
				n.k.Journal().Append(int64(n.k.Now()), journal.KMsgDup, int32(from), 0, 0, int64(to), int64(len(fates)), port)
			}
			for _, extra := range fates {
				n.deliverAfter(msg, d+extra)
			}
			return
		}
	}
	n.deliverAfter(msg, d)
}

// deliverAfter schedules one copy's arrival, re-checking liveness and
// partition state at delivery time: a message in flight toward a site
// that goes down (or across a link that gets cut) is lost, and the loss
// is journaled rather than silent.
func (n *Network) deliverAfter(msg Message, d sim.Duration) {
	n.mInflight.Add(1)
	var f *inflight
	if i := len(n.freeInflight) - 1; i >= 0 {
		f = n.freeInflight[i]
		n.freeInflight[i] = nil
		n.freeInflight = n.freeInflight[:i]
	} else {
		f = &inflight{n: n}
	}
	f.msg = msg
	n.k.AfterCall(d, deliver, f)
}

// deliver is the static delivery-event handler: it recycles the
// in-flight record and hands the message to the destination's server.
func deliver(a any) {
	f := a.(*inflight)
	n, msg := f.n, f.msg
	f.msg = Message{}
	n.freeInflight = append(n.freeInflight, f)
	from, to := msg.From, msg.To
	n.mInflight.Add(-1)
	if n.down[to] {
		n.dropMsg(from, to, DropDown, msg.Port)
		return
	}
	if from != to && n.Cut(from, to) {
		n.dropMsg(from, to, DropCut, msg.Port)
		return
	}
	msg.DeliveredAt = n.k.Now()
	n.mDelivered.Inc()
	if from != to {
		n.observeLatency(from, to, msg.DeliveredAt.Sub(msg.SentAt))
	}
	n.k.Journal().Append(int64(n.k.Now()), journal.KMsgRecv, int32(to), 0, 0, int64(from), 0, msg.Port)
	n.Server(to).enqueue(msg)
}

// dropMsg counts and journals one lost message.
func (n *Network) dropMsg(from, to db.SiteID, reason int64, port string) {
	switch reason {
	case DropCut:
		n.DroppedCut++
		n.mDropCut.Inc()
	case DropFault:
		n.DroppedFault++
		n.mDropFault.Inc()
	default:
		n.DroppedDown++
		n.mDropDown.Inc()
	}
	n.k.Journal().Append(int64(n.k.Now()), journal.KMsgDrop, int32(to), 0, 0, int64(from), reason, port)
}

// Hop suspends p for the one-way delay between two sites, modeling the
// travel of a synchronous request or reply the process itself waits on.
// It is cancelable like any park (deadline aborts propagate). A hop
// that is lost — destination down or link cut at send or at arrival, or
// an injected drop — blocks for the time-out and returns ErrSiteDown.
func (n *Network) Hop(p *sim.Proc, from, to db.SiteID) error {
	d := n.Delay(from, to)
	if from == to {
		return p.Sleep(d)
	}
	n.Sent++
	n.mSent.Inc()
	n.k.Journal().Append(int64(n.k.Now()), journal.KMsgSend, int32(from), 0, 0, int64(to), 0, "hop")
	timeout := n.Timeout
	if timeout <= 0 {
		timeout = 4*d + 10*sim.Millisecond
	}
	reason := int64(0)
	extra := sim.Duration(0)
	switch {
	case n.down[from] || n.down[to]:
		reason = DropDown
	case n.Cut(from, to):
		reason = DropCut
	default:
		if n.injector != nil {
			// A duplicate is meaningless for a rendezvous; only the
			// first copy's fate applies.
			fates := n.injector.Deliveries(n.k.Now(), from, to)
			if len(fates) == 0 {
				reason = DropFault
			} else {
				extra = fates[0]
			}
		}
	}
	if reason != 0 {
		n.dropMsg(from, to, reason, "hop")
		if err := p.Sleep(timeout); err != nil {
			return err
		}
		return ErrSiteDown
	}
	if err := p.Sleep(d + extra); err != nil {
		n.HopsAborted++
		return err
	}
	// Re-check at arrival: a site that went down (or a link that was
	// cut) while the hop was in flight loses the request; the sender
	// still burns the rest of its time-out before unblocking.
	if n.down[to] || n.Cut(from, to) {
		reason = DropCut
		if n.down[to] {
			reason = DropDown
		}
		n.dropMsg(from, to, reason, "hop")
		if rem := timeout - d - extra; rem > 0 {
			if err := p.Sleep(rem); err != nil {
				return err
			}
		}
		return ErrSiteDown
	}
	n.HopsArrived++
	return nil
}

// Shutdown stops every message-server process, in site order: map
// iteration order would otherwise leak into the teardown interleaving
// and break journal byte-identity across runs.
func (n *Network) Shutdown() {
	for _, site := range n.sites {
		if s, ok := n.servers[site]; ok {
			s.stop()
		}
	}
}

// Server is a site's message server: it hands the messages queued at
// its site to the handlers registered on their ports, one at a time, in
// arrival order unless a chooser reorders them.
type Server struct {
	k    *sim.Kernel
	site db.SiteID
	name string
	// idle is the body of the server's process, proc, which the server
	// keeps across resets: it delivers nothing and parks on tok until
	// Shutdown interrupts it (the package comment says why it exists).
	idle     func(*sim.Proc)
	tok      sim.Token
	proc     sim.Proc
	handlers map[string]Handler
	queue    []Message
	draining bool // a drain event is scheduled and has not finished
	stopped  bool

	// Delivered counts inter-site messages dispatched to handlers: an
	// intra-site message is not counted as sent either (see
	// Network.Sent), so the two balance.
	Delivered int
	// Dropped counts messages that arrived on a port with no handler.
	Dropped int
}

// reset makes s dormant for a new run: its process ended, nothing
// queued, counters at zero, its handlers kept (see Network.Reset).
func (s *Server) reset() {
	clear(s.queue)
	s.queue, s.draining, s.stopped = s.queue[:0], false, false
	s.Delivered, s.Dropped = 0, 0
}

// Handle registers the handler for a port, replacing any previous one.
func (s *Server) Handle(port string, h Handler) { s.handlers[port] = h }

// Site returns the server's site.
func (s *Server) Site() db.SiteID { return s.site }

// QueueLen reports the number of undelivered messages.
func (s *Server) QueueLen() int { return len(s.queue) }

// enqueue appends an arrival and, unless one is pending, schedules a
// drain at the current instant. Later arrivals at the same instant only
// append: the pending drain delivers them too.
func (s *Server) enqueue(msg Message) {
	if s.stopped {
		s.Dropped++
		return
	}
	s.queue = append(s.queue, msg)
	if !s.draining {
		s.draining = true
		s.k.AfterCall(0, drain, s)
	}
}

// drain is the static drain-event handler: it delivers queued messages
// until the queue is empty. Schedule exploration may reorder delivery:
// canonical order is arrival order (index 0), but any queued message is
// a legal next delivery since the network guarantees no ordering across
// senders anyway.
func drain(a any) {
	s := a.(*Server)
	for len(s.queue) > 0 {
		i := s.k.Choose(sim.ChooseMsg, len(s.queue))
		msg := s.queue[i]
		s.queue = slices.Delete(s.queue, i, i+1)
		h, ok := s.handlers[msg.Port]
		if !ok {
			s.Dropped++
			continue
		}
		if msg.From != msg.To {
			s.Delivered++
		}
		h(msg)
	}
	s.draining = false
}

func (s *Server) stop() {
	s.stopped = true
	s.proc.Interrupt(sim.ErrShutdown)
}
