package sim

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtlock/internal/journal"
	"rtlock/internal/metrics"
)

// The dispatch loop runs on whichever goroutine holds the baton. These
// tests put a process goroutine in that seat at the moments where the
// driver used to be the only one running the loop.

// sleeper spawns a process that logs "p<i>" and sleeps 10, n times over.
func sleeper(k *Kernel, trace *[]string, n int) *Proc {
	return k.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			*trace = append(*trace, "p"+strconv.Itoa(i))
			if p.Sleep(10) != nil {
				return
			}
		}
		*trace = append(*trace, "end")
	})
}

// TestStepsBoundWithProcessDriving: after its first park the process is
// the one dispatching, so every later bound is reached on its goroutine.
// Steps must stop on the same event, at the same clock, as it did when
// only the driver ran the loop, and a later Run picks up from there.
func TestStepsBoundWithProcessDriving(t *testing.T) {
	k := NewKernel()
	var trace []string
	sleeper(k, &trace, 2)
	k.At(15, func() { trace = append(trace, "t15") })

	for i, want := range []struct {
		steps, ran int
		now        Time
		trace      string
	}{
		{1, 1, 0, "p0"},             // start; the process parks and hits the bound itself
		{1, 1, 10, "p0"},            // its timer
		{1, 1, 10, "p0 p1"},         // its resumption
		{2, 2, 20, "p0 p1 t15"},     // t15, then the second timer
		{0, 0, 20, "p0 p1 t15"},     // an empty budget runs nothing
		{5, 1, 20, "p0 p1 t15 end"}, // the last resumption; the heap drains
	} {
		if ran := k.Steps(want.steps); ran != want.ran {
			t.Fatalf("step %d: Steps(%d) ran %d, want %d", i, want.steps, ran, want.ran)
		}
		if got := strings.Join(trace, " "); got != want.trace || k.Now() != want.now {
			t.Fatalf("step %d: trace %q at %d, want %q at %d", i, got, k.Now(), want.trace, want.now)
		}
	}
	if k.Live() != 0 || k.Pending() != 0 {
		t.Fatalf("live=%d pending=%d after the run", k.Live(), k.Pending())
	}

	// The same run, interrupted once mid-way and finished by Run.
	k = NewKernel()
	trace = nil
	sleeper(k, &trace, 2)
	k.At(15, func() { trace = append(trace, "t15") })
	k.Steps(3)
	if end := k.Run(); end != 20 {
		t.Fatalf("Run after Steps ended at %d, want 20", end)
	}
	if got := strings.Join(trace, " "); got != "p0 p1 t15 end" {
		t.Fatalf("trace %q after Steps then Run", got)
	}
}

// TestRunUntilBoundWithProcessDriving: the horizon is checked by the
// parked process's loop, which leaves the later events pending and hands
// back; Run then resumes that same process.
func TestRunUntilBoundWithProcessDriving(t *testing.T) {
	k := NewKernel()
	var trace []string
	sleeper(k, &trace, 4)
	k.RunUntil(25)
	if got := strings.Join(trace, " "); got != "p0 p1 p2" || k.Now() != 25 {
		t.Fatalf("RunUntil(25): trace %q at %d", got, k.Now())
	}
	if k.Pending() != 1 || k.Live() != 1 {
		t.Fatalf("pending=%d live=%d at the horizon, want 1 and 1", k.Pending(), k.Live())
	}
	k.RunUntil(30) // exactly on the timer: it and the resumption both run
	if got := strings.Join(trace, " "); got != "p0 p1 p2 p3" || k.Now() != 30 {
		t.Fatalf("RunUntil(30): trace %q at %d", got, k.Now())
	}
	if end := k.Run(); end != 40 {
		t.Fatalf("Run ended at %d, want 40", end)
	}
	if got := strings.Join(trace, " "); got != "p0 p1 p2 p3 end" {
		t.Fatalf("trace %q after Run", got)
	}
}

// TestBodyReturnsWithTimersPending: a worker whose body returned keeps
// dispatching. The timers that remain run on its goroutine, in handler
// context (no current process), and the drained heap hands back to Run.
func TestBodyReturnsWithTimersPending(t *testing.T) {
	k := NewKernel()
	k.Spawn("brief", func(*Proc) {})
	var fired []Time
	for _, at := range []Time{100, 200} {
		k.At(at, func() {
			if k.Current() != nil {
				t.Errorf("handler at %d sees current process %q", k.Now(), k.Current().Name())
			}
			fired = append(fired, k.Now())
		})
	}
	if end := k.Run(); end != 200 {
		t.Fatalf("Run ended at %d, want 200", end)
	}
	if !reflect.DeepEqual(fired, []Time{100, 200}) || k.Live() != 0 {
		t.Fatalf("fired %v, live %d", fired, k.Live())
	}
}

// TestParkFromHandlerPanicsWhoeverDrives: a handler dispatched by a
// parked process's goroutine is still handler context, so Park from it
// is the same programming error it always was.
func TestParkFromHandlerPanicsWhoeverDrives(t *testing.T) {
	k := NewKernel()
	var recovered any
	p := k.Spawn("p", func(p *Proc) { _ = p.Sleep(10) })
	k.At(5, func() {
		defer func() { recovered = recover() }()
		_ = p.Park(&Token{})
	})
	k.Run()
	if msg, _ := recovered.(string); !strings.Contains(msg, "while not running") {
		t.Fatalf("Park from a handler run by the parked process recovered %v", recovered)
	}
}

// resumeCounts reads the four sim_resumes_total series.
func resumeCounts(m *metrics.Registry) map[string]int64 {
	got := map[string]int64{}
	for _, via := range []string{"self", "handoff", "adopt", "start"} {
		got[via] = m.Counter("sim_resumes_total", "", metrics.L("via", via)).Value()
	}
	return got
}

// TestWorkerAdoptsNextStart: the event after the first body's exit
// spawns a second process, whose start event the same worker pops next;
// it runs that body on its own goroutine. A third process spawned while
// the second is parked cannot be adopted (the popping goroutine has a
// body on its stack), so it is handed to a new worker.
func TestWorkerAdoptsNextStart(t *testing.T) {
	k := NewKernel()
	m := metrics.New()
	k.SetMetrics(m)
	var trace []string
	k.Spawn("first", func(*Proc) { trace = append(trace, "first") })
	k.At(5, func() {
		k.Spawn("second", func(p *Proc) {
			trace = append(trace, "second")
			_ = p.Sleep(10)
			trace = append(trace, "second-woke")
		})
	})
	k.At(7, func() {
		k.Spawn("third", func(*Proc) { trace = append(trace, "third") })
	})
	k.Run()
	if got := strings.Join(trace, " "); got != "first second third second-woke" {
		t.Fatalf("trace %q", got)
	}
	// first: started by the driver. second: adopted by first's worker.
	// third: started from second's loop. third's worker then pops
	// second's timer and resumption: one hand-off, no self-resume.
	want := map[string]int64{"self": 0, "handoff": 1, "adopt": 1, "start": 2}
	if got := resumeCounts(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume counters %v, want %v", got, want)
	}
}

// TestResumeCountersSplit: a lone sleeper resumes itself every time; two
// processes bouncing a token pair hand off every time.
func TestResumeCountersSplit(t *testing.T) {
	k := NewKernel()
	m := metrics.New()
	k.SetMetrics(m)
	var trace []string
	sleeper(k, &trace, 5)
	k.Run()
	if got, want := resumeCounts(m), (map[string]int64{"self": 5, "handoff": 0, "adopt": 0, "start": 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("lone sleeper: %v, want %v", got, want)
	}

	k = NewKernel()
	m = metrics.New()
	k.SetMetrics(m)
	var ta, tb Token
	const rounds = 4
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			tb.Wake(nil)
			if p.Park(&ta) != nil {
				return
			}
			ta.Reset()
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if p.Park(&tb) != nil {
				return
			}
			tb.Reset()
			ta.Wake(nil)
		}
	})
	k.Run()
	got := resumeCounts(m)
	if got["self"] != 0 || got["handoff"] != 2*rounds-1 || got["adopt"]+got["start"] != 2 {
		t.Fatalf("ping-pong: %v", got)
	}
}

// TestChooserAppliesWithProcessDriving: the simultaneous timers are
// popped by the parked process's loop; the chooser is consulted with the
// same alternatives and the picks are journaled at the same instant as
// when the driver pops them.
func TestChooserAppliesWithProcessDriving(t *testing.T) {
	k := NewKernel()
	j := journal.New(1, "baton-choice")
	k.SetJournal(j, 0)
	k.Spawn("p", func(p *Proc) { _ = p.Sleep(10) })
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.At(5, func() { order = append(order, name) })
	}
	ch := &pickChooser{picks: []int{2, 1}}
	k.SetChooser(ch)
	k.Run()
	if want := []string{"c", "b", "a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if want := []int{3, 2}; !reflect.DeepEqual(ch.calls, want) {
		t.Fatalf("consulted %v, want %v", ch.calls, want)
	}
	var picks []int64
	for _, r := range j.Records() {
		if r.Kind == journal.KChoice {
			if r.At != 5 || r.A != int64(ChooseEvent) {
				t.Fatalf("KChoice record %+v, want an event choice at t=5", r)
			}
			picks = append(picks, r.B)
		}
	}
	if want := []int64{2, 1}; !reflect.DeepEqual(picks, want) {
		t.Fatalf("journaled picks %v, want %v", picks, want)
	}
}

// closeFunc is a WindowStore that calls itself.
type closeFunc func(end Time)

func (f closeFunc) Close(end Time) { f(end) }

// TestSamplingAppliesWithProcessDriving: windows are closed on the
// virtual-time boundaries the parked process's loop crosses, before any
// event at the boundary, and the partial last window is closed by the
// worker that empties the heap; draining again at the same instant
// closes nothing.
func TestSamplingAppliesWithProcessDriving(t *testing.T) {
	k := NewKernel()
	m := metrics.New()
	k.SetMetrics(m)
	ticks := m.Counter("test_ticks", "timer handlers run")
	events := m.Counter("sim_events_total", "")
	var got [][]int64
	k.SetWindows(10, closeFunc(func(end Time) { got = append(got, []int64{int64(end), events.Value(), ticks.Value()}) }))
	k.Spawn("p", func(p *Proc) { _ = p.Sleep(35) })
	for _, at := range []Time{5, 10, 25} {
		k.At(at, ticks.Inc)
	}
	k.Run()
	k.Run()
	want := [][]int64{{10, 2, 1}, {20, 3, 2}, {30, 4, 3}, {35, 6, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("closed windows (end, events, ticks) = %v, want %v", got, want)
	}
}

// TestStaleResumeOfDeadProcessSkipped: a resume event naming a process
// whose body has already returned is dropped, not delivered.
func TestStaleResumeOfDeadProcessSkipped(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("gone", func(*Proc) {})
	k.Run()
	if !p.Dead() {
		t.Fatal("process not dead after Run")
	}
	k.scheduleProc(p)
	fired := false
	k.At(1, func() { fired = true })
	if ran := k.Steps(5); ran != 2 || !fired {
		t.Fatalf("Steps ran %d (fired=%v), want the stale event skipped and the timer run", ran, fired)
	}
	if k.Current() != nil {
		t.Fatal("stale resume left a current process behind")
	}
}

// TestShutdownInterruptsInProcessIDOrder: the parked list is in park
// order (here the reverse of spawn order); Shutdown must still unwind
// in process-id order.
func TestShutdownInterruptsInProcessIDOrder(t *testing.T) {
	k := NewKernel()
	const n = 6
	var woke []int64
	for i := 0; i < n; i++ {
		delay := Duration(n - i) // later-spawned processes park on their token first
		k.Spawn("w", func(p *Proc) {
			if p.Sleep(delay) != nil {
				return
			}
			if err := p.Park(&Token{}); !errors.Is(err, ErrShutdown) {
				t.Errorf("process %d woke with %v", p.ID(), err)
			}
			woke = append(woke, p.ID())
		})
	}
	k.Run()
	if k.Live() != n {
		t.Fatalf("live = %d before shutdown, want %d", k.Live(), n)
	}
	if err := k.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("unwound in order %v, want %v", woke, want)
	}
}

// settleGoroutines polls until the goroutine count is back at base. A
// released worker's acknowledgement is the last thing it does, but the
// runtime retires it a moment later (a long moment under -race), and
// that retirement can only be observed by counting.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNoGoroutinesLeftBehind: when Run returns, the workers that went
// idle are gone, not merely told to go, and after Shutdown so are the
// ones whose processes were still parked. Many small kernels, as under
// the schedule explorer, must leave the goroutine count where it was.
func TestNoGoroutinesLeftBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 300; i++ {
		k := NewKernel()
		for j := 0; j < 4; j++ {
			d := Duration(1 + j)
			k.Spawn("w", func(p *Proc) { _ = p.Sleep(d) })
		}
		k.Run()
		if k.Live() != 0 {
			t.Fatalf("kernel %d: %d live after Run", i, k.Live())
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run over 300 kernels, started with %d", n, base)
	}

	for i := 0; i < 300; i++ {
		k := NewKernel()
		for j := 0; j < 4; j++ {
			k.Spawn("stuck", func(p *Proc) { _ = p.Park(&Token{}) })
		}
		k.Spawn("brief", func(*Proc) {})
		k.Run()
		if k.Live() != 4 {
			t.Fatalf("kernel %d: %d live after Run, want the 4 parked", i, k.Live())
		}
		if err := k.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run+Shutdown over 300 kernels, started with %d", n, base)
	}
}

// TestBatonCSVStable: the resume counters are part of the exported
// registry, and two identical runs export identical bytes — which
// goroutine drives is a function of the event order alone.
func TestBatonCSVStable(t *testing.T) {
	run := func() []byte {
		k := NewKernel()
		m := metrics.New()
		k.SetMetrics(m)
		var rows []metrics.TimelineRow
		k.SetWindows(5, closeFunc(func(end Time) {
			rows = append(rows, metrics.TimelineRow{End: int64(end), Series: m.Snapshot(nil)})
		}))
		cpu := NewCPU(k, PreemptivePriority)
		for i := 0; i < 8; i++ {
			prio := Priority{Deadline: int64(100 - i), TxID: int64(i)}
			k.Spawn("u", func(p *Proc) {
				for r := 0; r < 3; r++ {
					if cpu.Use(p, prio, 7) != nil {
						return
					}
				}
			})
		}
		k.Run()
		return metrics.CSV(m, rows)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("run %d exported different metrics:\n%s\nvs\n%s", i, first, again)
		}
	}
}
