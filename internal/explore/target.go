package explore

import (
	"errors"
	"fmt"
	"sync"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// journalPool recycles journals across schedule executions: the engine
// runs hundreds of full simulations per exploration, and each one's
// record buffer (thousands of records) would otherwise be regrown from
// nothing. Reset drops the records but keeps the buffers. Pooling is
// invisible to results — a journal's contents are a pure function of
// the run appended into it — so worker scheduling still affects wall
// clock only, never outcomes.
var journalPool = sync.Pool{New: func() any { return journal.New(0, "") }}

func getJournal(seed int64, config string) *journal.Journal {
	j := journalPool.Get().(*journal.Journal)
	j.Reset(seed, config)
	return j
}

func putJournal(j *journal.Journal) { journalPool.Put(j) }

// Exploration workloads are small, high-contention runs (a cluster's
// shape is FaultOpts' to change): the engine executes hundreds of full
// simulations per exploration, and contention — not load volume — is
// what makes decision points matter.
// The read-only fraction matters most: shared read locks are what make
// one release wake several waiters on the same tick, and those group
// wakes are the densest ChooseEvent sites in a single-site run.
const (
	defaultCount     = 24
	defaultDBSize    = 8
	defaultMeanSize  = 5
	defaultCPUPerObj = 5 * sim.Millisecond
	defaultInterarr  = 10 * sim.Millisecond
	defaultReadOnly  = 0.4
)

// SingleSiteOpts configures a single-site exploration target. The
// protocol arrives as an injected constructor (typically from
// experiments.ManagerFor) so this package stays independent of the
// protocol registry — experiments itself imports explore for the
// sweep.
type SingleSiteOpts struct {
	// Proto labels the protocol in reports and the journal config key
	// (the paper's letter, e.g. "C").
	Proto string
	// NewManager constructs the lock manager under test (required).
	NewManager func(*sim.Kernel) core.Manager
	// Discipline is the CPU scheduling discipline the protocol runs on.
	Discipline sim.Discipline
	// Seed drives the workload stream (default 1).
	Seed int64
}

// SingleSiteTarget builds the exploration target for one single-site
// protocol. Each Run constructs an entirely fresh simulation (catalog,
// workload, journal, kernel), so concurrent schedule executions share
// nothing.
func SingleSiteTarget(o SingleSiteOpts) (Target, error) {
	if o.NewManager == nil {
		return Target{}, errors.New("explore: SingleSiteOpts.NewManager is required")
	}
	if o.Discipline == 0 {
		o.Discipline = sim.PreemptivePriority
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	key := fmt.Sprintf("explore/single/%s/db=%d/count=%d/size=%d/ro=%g",
		o.Proto, defaultDBSize, defaultCount, defaultMeanSize, defaultReadOnly)
	// The catalog and workload are pure functions of the options, so
	// they are generated once here and shared read-only by every
	// schedule execution: the runtime only reads Txn fields (Ops, the
	// access sets, timing), never mutates them.
	cat, err := db.NewCatalog(1, defaultDBSize)
	if err != nil {
		return Target{}, err
	}
	load, err := workload.Generate(workload.Params{
		Seed:             o.Seed,
		Catalog:          cat,
		Count:            defaultCount,
		MeanInterarrival: defaultInterarr,
		MeanSize:         defaultMeanSize,
		ReadOnlyFrac:     defaultReadOnly,
		PerObjCost:       defaultCPUPerObj,
		SlackMin:         4,
		SlackMax:         8,
	})
	if err != nil {
		return Target{}, err
	}
	return Target{
		Name: "single/" + o.Proto,
		Run: func(ch sim.Chooser) (*Outcome, error) {
			jrn := getJournal(o.Seed, key)
			defer putJournal(jrn)
			sys, err := txn.NewSystem(txn.Config{
				CPUPerObj:     defaultCPUPerObj,
				CPUDiscipline: o.Discipline,
				NewManager:    o.NewManager,
				Journal:       jrn,
			})
			if err != nil {
				return nil, err
			}
			sys.K.SetChooser(ch)
			sys.Load(load)
			sys.Run()
			return &Outcome{
				JournalHash: jrn.HashString(),
				Violations:  audit.Run(jrn, audit.ForManager(sys.Mgr.Name())...),
			}, nil
		},
	}, nil
}

// DistributedTarget builds the exploration target for one distributed
// architecture. The distributed decision points (message delivery
// order, 2PC prepare rotation) only exist here. Unlike FaultTarget it
// never arms the fault space, so o.Space is unused.
func DistributedTarget(o FaultOpts) (Target, error) { return clusterTarget(o, false) }
