package netsim

import (
	"testing"

	"rtlock/internal/sim"
)

func TestSendDelayAndDelivery(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 5*sim.Millisecond)
	var deliveredAt sim.Time
	var got Message
	n.Server(1).Handle("ping", func(msg Message) {
		deliveredAt = k.Now()
		got = msg
	})
	k.At(sim.Time(10*sim.Millisecond), func() {
		n.Send(0, 1, "ping", "hello")
	})
	k.Run()
	if deliveredAt != sim.Time(15*sim.Millisecond) {
		t.Fatalf("delivered at %v, want 15ms", deliveredAt)
	}
	if got.Payload != "hello" || got.From != 0 || got.SentAt != sim.Time(10*sim.Millisecond) {
		t.Fatalf("message = %+v", got)
	}
	if n.Sent != 1 {
		t.Fatalf("Sent = %d, want 1", n.Sent)
	}
	n.Shutdown()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("%d live processes after shutdown", k.Live())
	}
}

func TestIntraSiteSendFreeAndUncounted(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 5*sim.Millisecond)
	var deliveredAt sim.Time
	n.Server(2).Handle("p", func(msg Message) { deliveredAt = k.Now() })
	k.At(sim.Time(3*sim.Millisecond), func() { n.Send(2, 2, "p", nil) })
	k.Run()
	if deliveredAt != sim.Time(3*sim.Millisecond) {
		t.Fatalf("intra-site delivery at %v, want 3ms (no delay)", deliveredAt)
	}
	if n.Sent != 0 {
		t.Fatalf("intra-site message counted: Sent = %d", n.Sent)
	}
	n.Shutdown()
	k.Run()
}

func TestDeliveryOrderFIFO(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	var order []int
	n.Server(1).Handle("seq", func(msg Message) {
		v, ok := msg.Payload.(int)
		if !ok {
			t.Errorf("payload %v", msg.Payload)
			return
		}
		order = append(order, v)
	})
	for i := 0; i < 5; i++ {
		i := i
		k.At(0, func() { n.Send(0, 1, "seq", i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v", order)
		}
	}
	if n.Server(1).Delivered != 5 {
		t.Fatalf("Delivered = %d", n.Server(1).Delivered)
	}
	n.Shutdown()
	k.Run()
}

func TestUnhandledPortDropped(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	n.Server(1) // create server with no handlers
	n.Send(0, 1, "nowhere", nil)
	k.Run()
	if n.Server(1).Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Server(1).Dropped)
	}
	n.Shutdown()
	k.Run()
}

func TestHop(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 7*sim.Millisecond)
	var after sim.Time
	k.Spawn("traveler", func(p *sim.Proc) {
		if err := n.Hop(p, 0, 1); err != nil {
			t.Errorf("Hop: %v", err)
		}
		after = p.Now()
	})
	k.Run()
	if after != sim.Time(7*sim.Millisecond) {
		t.Fatalf("hop completed at %v, want 7ms", after)
	}
	if n.Sent != 1 {
		t.Fatalf("Sent = %d", n.Sent)
	}
}

func TestHopSameSiteInstant(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 7*sim.Millisecond)
	var after sim.Time
	k.Spawn("local", func(p *sim.Proc) {
		if err := n.Hop(p, 1, 1); err != nil {
			t.Errorf("Hop: %v", err)
		}
		after = p.Now()
	})
	k.Run()
	if after != 0 {
		t.Fatalf("same-site hop took %v", after)
	}
	if n.Sent != 0 {
		t.Fatalf("same-site hop counted as message")
	}
}

func TestSendToDownSiteDropped(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	delivered := 0
	n.Server(1).Handle("p", func(m Message) { delivered++ })
	n.SetDown(1, true)
	n.Send(0, 1, "p", nil)
	k.Run()
	if delivered != 0 || n.DroppedDown != 1 {
		t.Fatalf("delivered=%d dropped=%d", delivered, n.DroppedDown)
	}
	// Recovery: messages flow again.
	n.SetDown(1, false)
	n.Send(0, 1, "p", nil)
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered=%d after recovery", delivered)
	}
	n.Shutdown()
	k.Run()
}

func TestHopToDownSiteTimesOut(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 5*sim.Millisecond)
	n.SetDown(2, true)
	var got error
	var woke sim.Time
	k.Spawn("caller", func(p *sim.Proc) {
		got = n.Hop(p, 0, 2)
		woke = p.Now()
	})
	k.Run()
	if got != ErrSiteDown {
		t.Fatalf("Hop returned %v, want ErrSiteDown", got)
	}
	// Default timeout: 4×delay + 10ms = 30ms.
	if woke != sim.Time(30*sim.Millisecond) {
		t.Fatalf("timed out at %v, want 30ms", woke)
	}
}

func TestHopTimeoutConfigurable(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, 5*sim.Millisecond)
	n.Timeout = 7 * sim.Millisecond
	n.SetDown(1, true)
	var woke sim.Time
	k.Spawn("caller", func(p *sim.Proc) {
		if err := n.Hop(p, 0, 1); err != ErrSiteDown {
			t.Errorf("err = %v", err)
		}
		woke = p.Now()
	})
	k.Run()
	if woke != sim.Time(7*sim.Millisecond) {
		t.Fatalf("timed out at %v, want 7ms", woke)
	}
}

// msgChooser records every ChooseMsg decision and answers it from a
// script; other decision points take the canonical pick.
type msgChooser struct {
	picks []int
	seen  []int // n of each ChooseMsg call
}

func (c *msgChooser) Choose(p sim.ChoicePoint, n int) int {
	if p != sim.ChooseMsg {
		return 0
	}
	i := len(c.seen)
	c.seen = append(c.seen, n)
	if i < len(c.picks) {
		return c.picks[i]
	}
	return 0
}

func TestSameInstantArrivalsHonourMsgChoices(t *testing.T) {
	k := sim.NewKernel()
	ch := &msgChooser{picks: []int{2, 1}}
	k.SetChooser(ch)
	n := NewNetwork(k, sim.Millisecond)
	var order []int
	n.Server(1).Handle("seq", func(msg Message) { order = append(order, msg.Payload.(int)) })
	k.At(0, func() {
		for i := 0; i < 3; i++ {
			n.Send(0, 1, "seq", i)
		}
	})
	k.Run()
	if len(ch.seen) != 2 || ch.seen[0] != 3 || ch.seen[1] != 2 {
		t.Fatalf("ChooseMsg alternatives = %v, want [3 2]", ch.seen)
	}
	// Pick 2 of [0 1 2], then 1 of [0 1], then the last one.
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("delivery order = %v, want [2 1 0]", order)
	}
	n.Shutdown()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("%d live processes after shutdown", k.Live())
	}
}

func TestHandlerRunsInEventContext(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	sleeper := k.Spawn("sleeper", func(p *sim.Proc) { _ = p.Sleep(sim.Second) })
	var current *sim.Proc
	var parkPanic any
	n.Server(1).Handle("p", func(Message) {
		current = k.Current()
		defer func() { parkPanic = recover() }()
		_ = sleeper.Park(&sim.Token{})
	})
	n.Send(0, 1, "p", nil)
	k.Run()
	if current != nil {
		t.Fatalf("handler ran in process %q, want event context", current.Name())
	}
	if parkPanic == nil {
		t.Fatal("Park from a handler did not panic")
	}
	n.Shutdown()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("%d live processes after shutdown", k.Live())
	}
}

func TestWarmSendDeliverZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	delivered := 0
	n.Server(1).Handle("p", func(Message) { delivered++ })
	payload := &struct{ v int }{}
	send := func() {
		n.Send(0, 1, "p", payload)
		k.Run()
	}
	send() // warm the event, record and queue pools
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("warm send→deliver→handler allocates %.2f times, want 0", allocs)
	}
	if delivered != 202 {
		t.Fatalf("delivered %d, want 202", delivered)
	}
	n.Shutdown()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("%d live processes after shutdown", k.Live())
	}
}

// TestServerRestartAllocFree: across resets a site's server starts on
// the process it keeps, so a run that starts its servers and shuts them
// down allocates nothing.
func TestServerRestartAllocFree(t *testing.T) {
	k := sim.NewKernel()
	k.KeepWorkers()
	defer k.Close()
	n := NewNetwork(k, sim.Millisecond)
	run := func() {
		k.Reset()
		n.Reset()
		n.Server(0)
		n.Server(1)
		k.Run()
		n.Shutdown()
		k.Run()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a run of two servers allocates %.2f times, want 0", allocs)
	}
	if k.Live() != 0 {
		t.Fatalf("%d live processes after shutdown", k.Live())
	}
}

func TestHandlerSpawnsWork(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.Millisecond)
	var done sim.Time
	n.Server(1).Handle("work", func(msg Message) {
		k.Spawn("worker", func(p *sim.Proc) {
			if err := p.Sleep(10 * sim.Millisecond); err != nil {
				return
			}
			done = p.Now()
		})
	})
	n.Send(0, 1, "work", nil)
	k.Run()
	if done != sim.Time(11*sim.Millisecond) {
		t.Fatalf("worker finished at %v, want 11ms", done)
	}
	n.Shutdown()
	k.Run()
}
