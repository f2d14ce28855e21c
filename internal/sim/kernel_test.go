package sim

import (
	"errors"
	"slices"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("simultaneous events out of schedule order: %v", got)
		}
	}
}

// TestSeqBlockOrdersAsReserved pins the reserved sequence numbers a
// chained loader schedules its arrivals under: an event scheduled late
// through a block still fires before simultaneous events scheduled
// after the reservation, and a used-up block refuses more.
func TestSeqBlockOrdersAsReserved(t *testing.T) {
	k := NewKernel()
	var got []string
	b := k.ReserveSeq(2)
	k.At(10, func() { got = append(got, "x") })
	b.AtCall(5, func(any) {
		got = append(got, "a")
		b.AtCall(10, func(arg any) { got = append(got, arg.(string)) }, "b")
	}, nil)
	k.Run()
	if want := []string{"a", "b", "x"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a used-up block scheduled a third event")
		}
	}()
	b.AtCall(20, func(any) {}, nil)
}

func TestEventCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestPastEventClampedToNow(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(100, func() {
		k.At(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 100 {
		t.Fatalf("past-scheduled event ran at %d, want 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, tt := range []Time{10, 20, 30, 40} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	k.RunUntil(25)
	if len(fired) != 2 || k.Now() != 25 {
		t.Fatalf("RunUntil(25): fired=%v now=%d", fired, k.Now())
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		if err := p.Sleep(500); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		wake = p.Now()
	})
	k.Run()
	if wake != 500 {
		t.Fatalf("woke at %d, want 500", wake)
	}
	if k.Live() != 0 {
		t.Fatalf("%d live processes after Run", k.Live())
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					if err := p.Sleep(10); err != nil {
						return
					}
				}
			})
		}
		k.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trace lengths differ: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestTokenWakeDeliversError(t *testing.T) {
	k := NewKernel()
	errBoom := errors.New("boom")
	var got error
	tok := &Token{}
	k.Spawn("waiter", func(p *Proc) {
		got = p.Park(tok)
	})
	k.At(50, func() { tok.Wake(errBoom) })
	k.Run()
	if !errors.Is(got, errBoom) {
		t.Fatalf("Park returned %v, want errBoom", got)
	}
}

func TestTokenWakeOnlyOnce(t *testing.T) {
	k := NewKernel()
	tok := &Token{}
	k.Spawn("waiter", func(p *Proc) {
		if err := p.Park(tok); err != nil {
			t.Errorf("Park: %v", err)
		}
	})
	k.At(10, func() {
		if !tok.Wake(nil) {
			t.Error("first Wake returned false")
		}
		if tok.Wake(errors.New("late")) {
			t.Error("second Wake returned true")
		}
	})
	k.Run()
}

func TestInterruptCancelsSleep(t *testing.T) {
	k := NewKernel()
	errAbort := errors.New("abort")
	var got error
	var woke Time
	var proc *Proc
	proc = k.Spawn("sleeper", func(p *Proc) {
		got = p.Sleep(1000)
		woke = p.Now()
	})
	k.At(100, func() {
		if !proc.Interrupt(errAbort) {
			t.Error("Interrupt returned false for a parked process")
		}
	})
	k.Run()
	if !errors.Is(got, errAbort) {
		t.Fatalf("Sleep returned %v, want abort error", got)
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want 100 (immediately on interrupt)", woke)
	}
}

func TestInterruptRunsOnCancelHook(t *testing.T) {
	k := NewKernel()
	cleaned := false
	tok := &Token{}
	tok.SetCancel(func(a any) { *a.(*bool) = true }, &cleaned)
	var proc *Proc
	proc = k.Spawn("p", func(p *Proc) {
		if err := p.Park(tok); err == nil {
			t.Error("Park returned nil after cancel")
		}
	})
	k.At(5, func() { proc.Interrupt(errors.New("x")) })
	k.Run()
	if !cleaned {
		t.Fatal("cancel hook did not run")
	}
}

func TestInterruptNotParked(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("idle", func(p *Proc) {})
	k.Run()
	if p.Interrupt(errors.New("x")) {
		t.Fatal("Interrupt of a terminated process returned true")
	}
}

func TestShutdownUnparksAll(t *testing.T) {
	k := NewKernel()
	var errs []error
	for i := 0; i < 5; i++ {
		k.Spawn("stuck", func(p *Proc) {
			errs = append(errs, p.Park(&Token{}))
		})
	}
	k.RunUntil(10)
	if k.Live() != 5 {
		t.Fatalf("live = %d, want 5", k.Live())
	}
	if err := k.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
	for _, err := range errs {
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("parked process got %v, want ErrShutdown", err)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	early := Priority{Deadline: 100, TxID: 2}
	late := Priority{Deadline: 200, TxID: 1}
	if !early.Higher(late) {
		t.Fatal("earlier deadline should be higher priority")
	}
	tieA := Priority{Deadline: 100, TxID: 1}
	tieB := Priority{Deadline: 100, TxID: 2}
	if !tieA.Higher(tieB) {
		t.Fatal("smaller TxID should break deadline ties")
	}
	if MinPriority.Higher(late) {
		t.Fatal("MinPriority must not outrank a real priority")
	}
	if !MaxPriority.Higher(early) {
		t.Fatal("MaxPriority must outrank every real priority")
	}
	if got := early.Max(late); got != early {
		t.Fatalf("Max = %v, want %v", got, early)
	}
	if !late.Lower(early) {
		t.Fatal("Lower is the inverse of Higher")
	}
}
