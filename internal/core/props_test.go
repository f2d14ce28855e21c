package core

import (
	"testing"
	"testing/quick"

	"rtlock/internal/sim"
)

// TestPropCeilingNeverDeadlocks is the protocol's headline safety
// property: under the priority ceiling protocol every randomly generated
// workload runs to completion without deadline aborts — mutual deadlock
// of transactions cannot occur (§3.2).
func TestPropCeilingNeverDeadlocks(t *testing.T) {
	prop := func(seed int64) bool {
		txs := randomScript(seed)
		if len(txs) == 0 {
			return true
		}
		k := sim.NewKernel()
		m := NewCeiling(k)
		runScript(t, k, m, txs)
		return allDone(txs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCeilingExclusiveNeverDeadlocks checks the same property for the
// exclusive-semantics variant.
func TestPropCeilingExclusiveNeverDeadlocks(t *testing.T) {
	prop := func(seed int64) bool {
		txs := randomScript(seed)
		if len(txs) == 0 {
			return true
		}
		k := sim.NewKernel()
		m := NewCeilingExclusive(k)
		runScript(t, k, m, txs)
		return allDone(txs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropInheritedPriorityNeverBelowBase: no protocol ever lowers a
// transaction's effective priority below its assigned priority.
func TestPropInheritedPriorityNeverBelowBase(t *testing.T) {
	prop := func(seed int64) bool {
		txs := randomScript(seed)
		if len(txs) == 0 {
			return true
		}
		k := sim.NewKernel()
		m := NewTwoPLInherit(k)
		ok := true
		// Sample effective priorities periodically during the run. The
		// sample count is bounded so a deadlocked workload (possible
		// under 2PL) cannot keep the event queue alive forever.
		samples := 0
		var sample func()
		sample = func() {
			samples++
			for _, tx := range txs {
				if tx.st != nil && tx.st.Base.Higher(tx.st.Eff()) {
					ok = false
				}
			}
			if k.Live() > 0 && samples < 1000 {
				k.After(sim.Millisecond, sample)
			}
		}
		k.After(sim.Millisecond, sample)
		runScript(t, k, m, txs)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropTwoPLCompletesWithoutCrossOrder: when every transaction
// acquires objects in ascending order, 2PL cannot deadlock and every
// workload completes — a sanity check that incompleteness in other tests
// really comes from cycles.
func TestPropTwoPLCompletesWithoutCrossOrder(t *testing.T) {
	prop := func(seed int64) bool {
		txs := randomScript(seed)
		if len(txs) == 0 {
			return true
		}
		for _, tx := range txs {
			// Sort each transaction's steps by object id.
			for i := 0; i < len(tx.steps); i++ {
				for j := i + 1; j < len(tx.steps); j++ {
					if tx.steps[j].obj < tx.steps[i].obj {
						tx.steps[i], tx.steps[j] = tx.steps[j], tx.steps[i]
					}
				}
			}
		}
		k := sim.NewKernel()
		m := NewTwoPL(k)
		runScript(t, k, m, txs)
		// Read→write upgrades on the same object can still deadlock
		// (two readers upgrading); exclude those workloads.
		for _, tx := range txs {
			seen := map[ObjectID]bool{}
			for _, s := range tx.steps {
				if seen[s.obj] {
					return true // upgrade present: skip
				}
				seen[s.obj] = true
			}
		}
		return allDone(txs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropLockTableClean: after every run (any protocol), no locks are
// held and no waiters remain.
func TestPropLockTableClean(t *testing.T) {
	mk := []struct {
		name string
		mgr  func(*sim.Kernel) Manager
	}{
		{"2PL-P", func(k *sim.Kernel) Manager { return NewTwoPLPriority(k) }},
		{"PCP", func(k *sim.Kernel) Manager { return NewCeiling(k) }},
	}
	for _, tc := range mk {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				txs := randomScript(seed)
				if len(txs) == 0 {
					return true
				}
				k := sim.NewKernel()
				m := tc.mgr(k)
				runScript(t, k, m, txs)
				mm := m.(interface {
					LockedObjects() int
					Waiting() int
				})
				return mm.LockedObjects() == 0 && mm.Waiting() == 0
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
