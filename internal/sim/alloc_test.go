package sim

import (
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

// TestProcSize keeps a process within the 80-byte size class. A
// transaction's process is the one allocation its path from generation
// to commit makes, so a field that grows Proc past 80 B moves every
// transaction up a size class (96 B, or 112 B for two pointer pairs).
func TestProcSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 80 {
		t.Fatalf("Proc is %d bytes, want <= 80", got)
	}
}
