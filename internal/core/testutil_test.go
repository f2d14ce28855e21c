package core

import (
	"math/rand"
	"testing"

	"rtlock/internal/sim"
)

// step is one scripted lock acquisition followed by a hold period of
// simulated work before the next step.
type step struct {
	obj  ObjectID
	mode Mode
	work sim.Duration
}

// scriptTx is a scripted transaction for protocol-level tests: it starts
// (and registers) at a given time, optionally pauses (active but not yet
// requesting locks — this is when its access sets contribute to ceilings
// without holding anything), then acquires locks per its steps, holding
// each for work before the next acquisition, and finally releases
// everything.
type scriptTx struct {
	id       int64
	deadline int64
	start    sim.Duration
	pause    sim.Duration
	steps    []step
	// estimate is the execution-time estimate the conditional-restart
	// rule weighs against a requester's slack.
	estimate sim.Duration

	st     *TxState
	err    error
	done   bool
	doneAt sim.Time
}

func (s *scriptTx) readWriteSets() (reads, writes []ObjectID) {
	seenR := make(map[ObjectID]bool)
	seenW := make(map[ObjectID]bool)
	for _, st := range s.steps {
		if st.mode == Write {
			if !seenW[st.obj] {
				seenW[st.obj] = true
				writes = append(writes, st.obj)
			}
		} else if !seenR[st.obj] {
			seenR[st.obj] = true
			reads = append(reads, st.obj)
		}
	}
	return reads, writes
}

// runScript spawns every scripted transaction and runs the kernel to
// completion. Transactions that cannot finish (deadlock) remain live;
// the caller inspects done flags. The kernel is shut down before return
// so no goroutines leak.
func runScript(t *testing.T, k *sim.Kernel, mgr Manager, txs []*scriptTx) {
	t.Helper()
	for _, tx := range txs {
		tx := tx
		k.Spawn("tx", func(p *sim.Proc) {
			if err := p.Sleep(tx.start); err != nil {
				tx.err = err
				return
			}
			st := NewTxState(tx.id, sim.Priority{Deadline: tx.deadline, TxID: tx.id}, p)
			st.ReadSet, st.WriteSet = tx.readWriteSets()
			st.Estimate = tx.estimate
			tx.st = st
			mgr.Register(st)
			defer mgr.Unregister(st)
			defer mgr.ReleaseAll(st)
			if err := p.Sleep(tx.pause); err != nil {
				tx.err = err
				return
			}
			for _, s := range tx.steps {
				if err := mgr.Acquire(p, st, s.obj, s.mode); err != nil {
					tx.err = err
					return
				}
				if err := p.Sleep(s.work); err != nil {
					tx.err = err
					return
				}
			}
			tx.done = true
			tx.doneAt = p.Now()
		})
	}
	k.Run()
	if err := k.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// randomScript builds a reproducible random workload for property tests.
// All transactions register at time zero (a static population, as the
// ceiling protocol's deadlock-freedom theorem assumes) and begin
// executing after individual random pauses.
func randomScript(seed int64) []*scriptTx {
	rng := rand.New(rand.NewSource(seed))
	nTx := 2 + rng.Intn(7)
	nObj := 2 + rng.Intn(5)
	txs := make([]*scriptTx, 0, nTx)
	for i := 0; i < nTx; i++ {
		nSteps := 1 + rng.Intn(4)
		steps := make([]step, 0, nSteps)
		used := make(map[ObjectID]bool)
		for j := 0; j < nSteps; j++ {
			obj := ObjectID(rng.Intn(nObj))
			if used[obj] {
				continue
			}
			used[obj] = true
			mode := Read
			if rng.Intn(2) == 0 {
				mode = Write
			}
			steps = append(steps, step{obj: obj, mode: mode, work: sim.Duration(1+rng.Intn(50)) * sim.Millisecond})
		}
		if len(steps) == 0 {
			continue
		}
		txs = append(txs, &scriptTx{
			id:       int64(i + 1),
			deadline: int64(rng.Intn(10000)),
			pause:    sim.Duration(rng.Intn(100)) * sim.Millisecond,
			steps:    steps,
		})
	}
	return txs
}

func allDone(txs []*scriptTx) bool {
	for _, tx := range txs {
		if !tx.done {
			return false
		}
	}
	return true
}
