package txn

import (
	"testing"
	"testing/quick"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// protocolsUnderTest builds every single-site protocol: the table's
// rows, keyed by manager name.
func protocolsUnderTest() map[string]func(*sim.Kernel) core.Manager {
	mks := map[string]func(*sim.Kernel) core.Manager{}
	for i := range core.Protocols {
		mks[core.Protocols[i].Name] = core.Protocols[i].New
	}
	return mks
}

// soakLoad generates a heavy mixed workload.
func soakLoad(t *testing.T, seed int64, count int) []*workload.Txn {
	t.Helper()
	cat, err := db.NewCatalog(1, 60) // small database: high contention
	if err != nil {
		t.Fatal(err)
	}
	load, err := workload.Generate(workload.Params{
		Seed:             seed,
		Catalog:          cat,
		Count:            count,
		MeanInterarrival: 40 * sim.Millisecond,
		MeanSize:         8,
		ReadOnlyFrac:     0.4,
		PerObjCost:       10 * sim.Millisecond,
		SlackMin:         2,
		SlackMax:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return load
}

// TestSoakAllProtocols runs a few thousand heavily contended
// transactions through every protocol and checks the global invariants:
// every transaction is processed exactly once, the committed history is
// conflict serializable, and no simulated process leaks.
func TestSoakAllProtocols(t *testing.T) {
	count := 3000
	if testing.Short() {
		count = 300
	}
	for name, mgr := range protocolsUnderTest() {
		name, mgr := name, mgr
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				CPUPerObj:  10 * sim.Millisecond,
				IOPerObj:   10 * sim.Millisecond,
				NewManager: mgr,
			}
			ser := teeHistory(&cfg)
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Load(soakLoad(t, 42, count))
			sum := s.Run()
			if sum.Processed != count {
				t.Fatalf("processed %d/%d", sum.Processed, count)
			}
			if !serializable(ser) {
				t.Fatal("committed history not conflict serializable")
			}
			if s.K.Live() != 0 {
				t.Fatalf("%d simulated processes leaked", s.K.Live())
			}
		})
	}
}

// TestPropEveryProtocolSerializable is the strongest oracle: random
// workloads through every protocol must always produce conflict-
// serializable committed histories and process every transaction.
func TestPropEveryProtocolSerializable(t *testing.T) {
	for name, mgr := range protocolsUnderTest() {
		name, mgr := name, mgr
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64) bool {
				cfg := Config{CPUPerObj: 10 * sim.Millisecond, NewManager: mgr}
				ser := teeHistory(&cfg)
				s, err := NewSystem(cfg)
				if err != nil {
					return false
				}
				s.Load(soakLoad(t, seed, 60))
				sum := s.Run()
				return sum.Processed == 60 && serializable(ser) && s.K.Live() == 0
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
