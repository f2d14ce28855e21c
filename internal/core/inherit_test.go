package core

import (
	"testing"

	"rtlock/internal/sim"
)

func mkTx(id, deadline int64) *TxState {
	return NewTxState(id, sim.Priority{Deadline: deadline, TxID: id}, nil)
}

func TestGraphBlameRaisesHolder(t *testing.T) {
	g := newInheritGraph()
	holder := mkTx(1, 100)
	waiter := mkTx(2, 10)
	g.setBlame(waiter, []*TxState{holder})
	if holder.Eff() != waiter.Base {
		t.Fatalf("holder eff = %v, want inherited %v", holder.Eff(), waiter.Base)
	}
	g.clear(waiter)
	if holder.Eff() != holder.Base {
		t.Fatalf("holder eff = %v after clear, want base", holder.Eff())
	}
}

func TestGraphBlameHighestOfMany(t *testing.T) {
	g := newInheritGraph()
	holder := mkTx(1, 100)
	w1 := mkTx(2, 50)
	w2 := mkTx(3, 10) // most urgent
	g.setBlame(w1, []*TxState{holder})
	g.setBlame(w2, []*TxState{holder})
	if holder.Eff() != w2.Base {
		t.Fatalf("holder eff = %v, want the most urgent waiter's %v", holder.Eff(), w2.Base)
	}
	g.clear(w2)
	if holder.Eff() != w1.Base {
		t.Fatalf("holder eff = %v after w2 left, want %v", holder.Eff(), w1.Base)
	}
}

func TestGraphTransitiveChain(t *testing.T) {
	g := newInheritGraph()
	a := mkTx(1, 10) // urgent, blocked by b
	b := mkTx(2, 50) // blocked by c
	c := mkTx(3, 90)
	g.setBlame(b, []*TxState{c})
	g.setBlame(a, []*TxState{b})
	if b.Eff() != a.Base {
		t.Fatalf("b eff = %v", b.Eff())
	}
	if c.Eff() != a.Base {
		t.Fatalf("c eff = %v, want transitive inheritance of a's priority", c.Eff())
	}
	// a departs: both revert along the chain.
	g.clear(a)
	if b.Eff() != b.Base || c.Eff() != b.Base {
		t.Fatalf("after a left: b=%v c=%v", b.Eff(), c.Eff())
	}
}

func TestGraphDropHolderShedsAndDetaches(t *testing.T) {
	g := newInheritGraph()
	holder := mkTx(1, 100)
	w := mkTx(2, 10)
	g.setBlame(w, []*TxState{holder})
	g.dropHolder(holder)
	if holder.Eff() != holder.Base {
		t.Fatalf("holder kept inherited priority: %v", holder.Eff())
	}
	// The waiter has no blame edges left; re-blaming elsewhere works.
	other := mkTx(3, 200)
	g.setBlame(w, []*TxState{other})
	if other.Eff() != w.Base {
		t.Fatalf("re-blame did not raise the new holder: %v", other.Eff())
	}
}

func TestGraphCycleTerminates(t *testing.T) {
	// A waits-for cycle (possible under 2PL) must not loop the
	// propagation forever.
	g := newInheritGraph()
	a := mkTx(1, 10)
	b := mkTx(2, 20)
	g.setBlame(a, []*TxState{b})
	g.setBlame(b, []*TxState{a}) // cycle
	// Both end up at the highest priority on the cycle.
	if b.Eff() != a.Base {
		t.Fatalf("b eff = %v", b.Eff())
	}
	g.clear(a)
	g.clear(b)
	if a.Eff() != a.Base || b.Eff() != b.Base {
		t.Fatalf("cycle cleanup: a=%v b=%v", a.Eff(), b.Eff())
	}
}

func TestGraphSelfBlameIgnored(t *testing.T) {
	g := newInheritGraph()
	a := mkTx(1, 10)
	g.setBlame(a, []*TxState{a})
	if a.Eff() != a.Base {
		t.Fatalf("self-blame changed priority: %v", a.Eff())
	}
}

func TestGraphReblameReplacesEdges(t *testing.T) {
	g := newInheritGraph()
	w := mkTx(1, 10)
	h1 := mkTx(2, 100)
	h2 := mkTx(3, 200)
	g.setBlame(w, []*TxState{h1})
	g.setBlame(w, []*TxState{h2}) // replaces h1
	if h1.Eff() != h1.Base {
		t.Fatalf("h1 kept stale inheritance: %v", h1.Eff())
	}
	if h2.Eff() != w.Base {
		t.Fatalf("h2 eff = %v", h2.Eff())
	}
}

func TestOnPrioChangeFires(t *testing.T) {
	g := newInheritGraph()
	holder := mkTx(1, 100)
	var calls []sim.Priority
	holder.OnPrioChange = func(p sim.Priority) { calls = append(calls, p) }
	w := mkTx(2, 10)
	g.setBlame(w, []*TxState{holder})
	g.clear(w)
	if len(calls) != 2 {
		t.Fatalf("OnPrioChange calls = %d, want inherit+shed", len(calls))
	}
	if calls[0] != w.Base || calls[1] != holder.Base {
		t.Fatalf("calls = %v", calls)
	}
}

func TestManagerNames(t *testing.T) {
	k := sim.NewKernel()
	for i := range Protocols {
		r := &Protocols[i]
		if got := r.New(k).Name(); got != r.Name {
			t.Errorf("row %s builds a manager named %q, want %q", r.Letter, got, r.Name)
		}
	}
}

func TestTxStateAccessors(t *testing.T) {
	st := mkTx(1, 10)
	st.WriteSet = []ObjectID{3, 5}
	if st.WantsWrite(4) || !st.WantsWrite(5) {
		t.Fatal("WantsWrite")
	}
	if _, ok := st.Holds(3); ok {
		t.Fatal("Holds on fresh state")
	}
	st.setHeld(3, Write)
	if m, ok := st.Holds(3); !ok || m != Write {
		t.Fatal("Holds after grant")
	}
	if st.HeldCount() != 1 {
		t.Fatalf("HeldCount = %d", st.HeldCount())
	}
}

func TestRegisterUnregisterNoOps(t *testing.T) {
	k := sim.NewKernel()
	st := mkTx(1, 10)
	for _, m := range []Manager{NewTwoPL(k), NewTwoPLHP(k), NewTwoPLCond(k)} {
		m.Register(st)
		m.Unregister(st)
	}
}

func TestModeString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must render something")
	}
}
