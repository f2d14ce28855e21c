package core

import (
	"errors"
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
	// interrupt, when positive, is how long after start the script's
	// deadline expires: whatever it is parked on then is cancelled with
	// errScriptDeadline.
	interrupt sim.Duration
	// every, when positive, repeats the script with that period, on one
	// process and one recycled TxState as the transaction layer does; the
	// caller then drives the kernel a period at a time (spawnScript).
	every sim.Duration

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

// errScriptDeadline is what a script's interrupt delivers.
var errScriptDeadline = errors.New("script deadline")

func interruptProc(arg any) { arg.(*sim.Proc).Interrupt(errScriptDeadline) }

// runScript spawns every scripted transaction and runs the kernel to
// completion. Transactions that cannot finish (deadlock) remain live;
// the caller inspects done flags. The kernel is shut down before return
// so no goroutines leak.
func runScript(t *testing.T, k *sim.Kernel, mgr Manager, txs []*scriptTx) {
	t.Helper()
	spawnScript(k, mgr, txs)
	k.Run()
	if err := k.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// spawnScript spawns the scripted transactions without running them.
func spawnScript(k *sim.Kernel, mgr Manager, txs []*scriptTx) {
	for _, tx := range txs {
		tx := tx
		k.Spawn("tx", func(p *sim.Proc) {
			reads, writes := tx.readWriteSets()
			prio := sim.Priority{Deadline: tx.deadline, TxID: tx.id}
			tx.st = NewTxState(tx.id, prio, p)
			for began := p.Now(); ; began = began.Add(tx.every) {
				tx.done = false
				tx.err = tx.runOnce(k, mgr, p, reads, writes)
				if tx.every <= 0 || p.Sleep(began.Add(tx.every).Sub(p.Now())) != nil {
					return
				}
				tx.st.ResetFor(tx.id, prio, p)
			}
		})
	}
}

// runOnce is one pass through the script; a nil error with done unset
// cannot happen.
func (tx *scriptTx) runOnce(k *sim.Kernel, mgr Manager, p *sim.Proc, reads, writes []ObjectID) error {
	if err := p.Sleep(tx.start); err != nil {
		return err
	}
	st := tx.st
	st.ReadSet, st.WriteSet = reads, writes
	st.Estimate = tx.estimate
	if tx.interrupt > 0 {
		defer k.AfterCall(tx.interrupt, interruptProc, p).Cancel()
	}
	mgr.Register(st)
	defer mgr.Unregister(st)
	defer mgr.ReleaseAll(st)
	if err := p.Sleep(tx.pause); err != nil {
		return err
	}
	for _, s := range tx.steps {
		if err := mgr.Acquire(p, st, s.obj, s.mode); err != nil {
			return err
		}
		if err := p.Sleep(s.work); err != nil {
			return err
		}
	}
	tx.done = true
	tx.doneAt = p.Now()
	return nil
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
