package core

import (
	"testing"

	"rtlock/internal/sim"
)

// TestLockTableEpisode runs one scripted episode per period through the
// shared lock table, under one row of each family and rule that shapes
// the blocked path: grant, block, a waiter cancelled by its deadline,
// release, and the grant that release hands on. After every period the
// table must have drained, and once the pools are warm a period must
// allocate nothing — entries, waiters, blame sets and inheritance edges
// all come back from where the previous period left them.
//
//	low   (deadline 100) write-locks obj 2 at 0 ms for 20 ms
//	high  (deadline 10)  write-locks obj 1 at 1 ms for 30 ms
//	quit  (deadline 20)  wants obj 1 at 5 ms; its deadline expires at 10 ms
//	next  (deadline 30)  wants obj 1 at 6 ms; granted when high releases
//	rush  (deadline 5)   wants obj 2 at 8 ms: low inherits (C, CX, PI), is
//	                     wounded (HP), or just finishes first (P)
func TestLockTableEpisode(t *testing.T) {
	const ms = sim.Millisecond
	for _, letter := range []Protocol{ProtoCeiling, ProtoCeilingX, ProtoTwoPLPrio, ProtoInherit, ProtoTwoPLHP} {
		t.Run(string(letter), func(t *testing.T) {
			k := sim.NewKernel()
			m := row(letter).New(k)
			table := m.(interface {
				LockedObjects() int
				Waiting() int
			})
			script := func(id, deadline int64, start sim.Duration, obj ObjectID, work sim.Duration) *scriptTx {
				return &scriptTx{id: id, deadline: deadline, start: start, every: 50 * ms,
					steps: []step{{obj: obj, mode: Write, work: work}}}
			}
			low := script(1, 100, 0, 2, 20*ms)
			high := script(2, 10, 1*ms, 1, 30*ms)
			quit := script(3, 20, 5*ms, 1, 5*ms)
			quit.interrupt = 5 * ms
			next := script(4, 30, 6*ms, 1, 5*ms)
			rush := script(5, 5, 8*ms, 2, 5*ms)
			spawnScript(k, m, []*scriptTx{low, high, quit, next, rush})

			end := sim.Time(0)
			period := func() {
				end = end.Add(45 * ms) // every script is over, none has restarted
				k.RunUntil(end)
				end = end.Add(5 * ms)
			}
			period()
			if !high.done || !next.done || !rush.done || next.doneAt <= high.doneAt {
				t.Fatalf("high done=%v at %d, next done=%v at %d, rush done=%v", high.done, high.doneAt, next.done, next.doneAt, rush.done)
			}
			if quit.err != errScriptDeadline {
				t.Fatalf("quit ended with %v, want its deadline to cancel the wait", quit.err)
			}
			if wounded := letter == ProtoTwoPLHP; low.done == wounded {
				t.Fatalf("low done=%v err=%v", low.done, low.err)
			}
			if table.LockedObjects() != 0 || table.Waiting() != 0 {
				t.Fatalf("table not drained: %d locked, %d waiting", table.LockedObjects(), table.Waiting())
			}
			period() // second warm-up: free lists now hold what the first period grew
			if allocs := testing.AllocsPerRun(5, period); allocs != 0 {
				t.Errorf("a warm episode allocated %.1f times; want 0", allocs)
			}
			if table.LockedObjects() != 0 || table.Waiting() != 0 {
				t.Fatalf("table not drained after repeats: %d locked, %d waiting", table.LockedObjects(), table.Waiting())
			}
			if err := k.Shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}
