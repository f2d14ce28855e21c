package sim

import (
	"errors"
	"testing"
)

func TestCancelAlreadyFiredEvent(t *testing.T) {
	k := NewKernel()
	var ev EventRef
	ev = k.At(10, func() {})
	k.Run()
	if ev.Cancel() {
		t.Fatal("Cancel of a fired event returned true")
	}
}

func TestCancelNilEvent(t *testing.T) {
	var ev EventRef
	if ev.Cancel() {
		t.Fatal("Cancel of zero EventRef returned true")
	}
}

// TestCancelRecycledEvent pins the generation check: a stale ref to a
// fired event must not cancel a different event that recycled the same
// struct.
func TestCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	stale := k.At(1, func() {})
	k.Run()
	// The recycled struct is reused for the next scheduled event.
	fired := false
	fresh := k.At(2, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale ref canceled a recycled event")
	}
	if stale.Pending() {
		t.Fatal("stale ref reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event not pending")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestEventAtAccessor(t *testing.T) {
	k := NewKernel()
	ev := k.At(42, func() {})
	if ev.At() != 42 {
		t.Fatalf("At() = %v", ev.At())
	}
	ev.Cancel()
	k.Run()
}

func TestRunUntilSkipsCanceledHead(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.At(5, func() { fired = true })
	k.At(10, func() {})
	ev.Cancel()
	k.RunUntil(20)
	if fired {
		t.Fatal("canceled head event fired")
	}
	if k.Now() != 20 {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestStepsBounded(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 5; i++ {
		k.At(Time(i), func() { count++ })
	}
	if ran := k.Steps(3); ran != 3 || count != 3 {
		t.Fatalf("Steps(3) ran %d, count %d", ran, count)
	}
	if ran := k.Steps(10); ran != 2 {
		t.Fatalf("Steps(10) ran %d, want remaining 2", ran)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childDone Time
	k.Spawn("parent", func(p *Proc) {
		if err := p.Sleep(10); err != nil {
			return
		}
		k.Spawn("child", func(c *Proc) {
			if err := c.Sleep(5); err != nil {
				return
			}
			childDone = c.Now()
		})
		if err := p.Sleep(100); err != nil {
			return
		}
	})
	k.Run()
	if childDone != 15 {
		t.Fatalf("child done at %v, want 15", childDone)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d", k.Live())
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("named", func(p *Proc) {
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
		if p.Now() != k.Now() {
			t.Error("Now() mismatch")
		}
	})
	k.Run()
	if p.Name() != "named" || p.ID() == 0 {
		t.Fatalf("name=%q id=%d", p.Name(), p.ID())
	}
}

func TestTokenCancelBeforeParkConsumedInline(t *testing.T) {
	// A token woken before Park is consumed without yielding.
	k := NewKernel()
	var got error
	k.Spawn("p", func(p *Proc) {
		tok := &Token{}
		tok.Wake(errors.New("early"))
		got = p.Park(tok)
	})
	k.Run()
	if got == nil || got.Error() != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestZeroSleepStillYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		if err := p.Sleep(0); err != nil {
			return
		}
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a parks at its zero-sleep, letting b run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterruptTwiceSecondFails(t *testing.T) {
	k := NewKernel()
	var proc *Proc
	proc = k.Spawn("p", func(p *Proc) {
		_ = p.Sleep(1000)
	})
	k.At(10, func() {
		if !proc.Interrupt(errors.New("first")) {
			t.Error("first interrupt failed")
		}
		if proc.Interrupt(errors.New("second")) {
			t.Error("second interrupt succeeded on same park")
		}
	})
	k.Run()
}

func TestShutdownIdempotentWhenEmpty(t *testing.T) {
	k := NewKernel()
	if err := k.Shutdown(); err != nil {
		t.Fatalf("Shutdown of empty kernel: %v", err)
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel()
	k.At(1, func() {})
	k.At(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d", k.Pending())
	}
}
