package sim

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"rtlock/internal/journal"
)

// allocTicker is the self-rescheduling dispatch workload for the
// allocation gate: a static callback plus a pointer argument exercises
// the AfterCall path exactly as the hot simulation sites do.
type allocTicker struct {
	k *Kernel
	n int
}

func allocTick(arg any) {
	t := arg.(*allocTicker)
	t.k.Emit(journal.KOp, 0, 0, int64(t.n), 0, "")
	if t.n > 0 {
		t.n--
		t.k.AfterCall(Millisecond, allocTick, t)
	}
}

// TestKernelDispatchZeroAlloc is the allocation-regression gate for the
// kernel's event fast path: once the event pool is warm, scheduling and
// dispatching events must not allocate at all. A regression here (a
// closure sneaking into a hot site, an event escaping its pool) fails
// the gate before it can show up as a throughput loss. Each event also
// emits a record to a journal that keeps none, as audit-only runs do.
func TestKernelDispatchZeroAlloc(t *testing.T) {
	k := NewKernel()
	j := journal.New(1, "alloc-gate")
	j.Tee(true)
	k.SetJournal(j, 0)
	tick := &allocTicker{k: k}
	run := func() {
		tick.n = 256
		k.AfterCall(0, allocTick, tick)
		k.Run()
	}
	run() // warm the event pool and heap storage
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("kernel dispatch allocated %.1f times per 256-event run; want 0", allocs)
	}
}

// sleepRunAllocs runs one kernel with a single process that sleeps n
// times and returns the total heap allocations of the whole run
// (spawn, goroutine, and all sleeps included).
func sleepRunAllocs(t *testing.T, n int) uint64 {
	t.Helper()
	k := NewKernel()
	done := false
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			if err := p.Sleep(Millisecond); err != nil {
				t.Errorf("sleep: %v", err)
				return
			}
		}
		done = true
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k.Run()
	runtime.ReadMemStats(&after)
	if !done {
		t.Fatal("sleeper did not finish")
	}
	return after.Mallocs - before.Mallocs
}

// TestKernelSleepScaleInvariantAllocs gates the park/wake cycle: the
// token and event recycling make each Sleep allocation-free, so a run
// with 16x the sleeps must not allocate meaningfully more than a short
// one. The fixed per-run overhead (spawn, goroutine, channels) is
// allowed; per-sleep growth is the regression this catches.
func TestKernelSleepScaleInvariantAllocs(t *testing.T) {
	short := sleepRunAllocs(t, 64)
	long := sleepRunAllocs(t, 1024)
	// Allow a small slack for runtime-internal noise; 960 extra sleeps
	// would add >=960 allocations if the park path allocated per sleep.
	if long > short+32 {
		t.Fatalf("sleep path allocates per iteration: 64 sleeps = %d allocs, 1024 sleeps = %d allocs", short, long)
	}
}

// TestProcSize keeps a process within the 80-byte size class. Spawn
// allocates one per message server, resolver and checkpointer, and a
// transaction's process lives in its pooled run (txn's run is 128 B
// with it, exactly a size class), so a field that grows Proc past 80 B
// moves each of them up a size class.
func TestProcSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 80 {
		t.Fatalf("Proc is %d bytes, want <= 80", got)
	}
}

// TestStartReusesProc: a Proc started, ended and started again is a new
// process. It gets the next pid, its journal records are byte for byte
// those of a Spawn in its place, and a warm Start allocates nothing.
// Start on a process that has not ended — not yet begun, or parked —
// panics.
func TestStartReusesProc(t *testing.T) {
	sleep := func(p *Proc) { _ = p.Sleep(2 * Millisecond) }
	// run starts "a" at 0, a sleeper "b" at 1 ms and, once "a" has
	// ended, "c" at 5 ms, each sleeping 2 ms; "a" and "c" go through
	// start, which is either Spawn or Start on one reused Proc.
	run := func(start func(k *Kernel, name string) *Proc) (*journal.Journal, [2]int64) {
		k := NewKernel()
		j := journal.New(1, "start-reuse")
		k.SetJournal(j, 0)
		var pids [2]int64
		pids[0] = start(k, "a").ID()
		k.At(Time(Millisecond), func() { k.Spawn("b", sleep) })
		k.At(Time(5*Millisecond), func() { pids[1] = start(k, "c").ID() })
		k.Run()
		return j, pids
	}
	spawned, spawnPIDs := run(func(k *Kernel, name string) *Proc { return k.Spawn(name, sleep) })
	var pooled Proc
	started, startPIDs := run(func(k *Kernel, name string) *Proc {
		if name == "c" && !pooled.Dead() {
			t.Fatal("the first process on the Proc has not ended by 5 ms")
		}
		return k.Start(&pooled, name, sleep)
	})
	if startPIDs != [2]int64{1, 3} || startPIDs != spawnPIDs {
		t.Fatalf("pids %v on the reused Proc, %v spawned; want [1 3] for both", startPIDs, spawnPIDs)
	}
	if pooled.Name() != "c" || !pooled.Dead() {
		t.Fatalf("after the run the Proc is %q, dead=%v; want \"c\", ended", pooled.Name(), pooled.Dead())
	}
	var a, b bytes.Buffer
	if err := spawned.EncodeBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := started.EncodeBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("a reused Proc's journal differs from a spawned one's:\n%s", journal.Diff(spawned, started))
	}

	k := NewKernel()
	k.KeepWorkers()
	defer k.Close()
	body := func(*Proc) {}
	again := func() {
		k.Start(&pooled, "", body)
		k.Run()
	}
	again() // warm the event pool and an idle worker
	if allocs := testing.AllocsPerRun(10, again); allocs != 0 {
		t.Fatalf("a warm Start on an ended Proc allocated %.1f times; want 0", allocs)
	}

	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Start on a process that %s did not panic", what)
			}
		}()
		k.Start(&pooled, "again", body)
	}
	k.Start(&pooled, "pending", sleep)
	mustPanic("has not begun")
	k.RunUntil(Time(Millisecond))
	mustPanic("is parked")
	k.Run()
	k.Start(&pooled, "after", body) // ended: legal again
	k.Run()
}
