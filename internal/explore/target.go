package explore

import (
	"errors"
	"fmt"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

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
// protocol. Its rig is a txn.System with the protocol's manager, the
// protocol's auditors and a journal, all reset in place per schedule;
// concurrent schedules run on different rigs and share only the
// read-only workload.
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
	newRig := func() (rig, error) {
		r := &singleRig{seed: o.Seed, key: key, load: load, jrn: journal.New(o.Seed, key)}
		r.cfg = txn.Config{
			CPUPerObj:     defaultCPUPerObj,
			CPUDiscipline: o.Discipline,
			NewManager:    o.NewManager,
			Journal:       r.jrn,
		}
		sys, err := txn.NewSystem(r.cfg)
		if err != nil {
			return nil, err
		}
		sys.K.KeepWorkers()
		r.sys = sys
		r.auds = audit.ForManager(sys.Mgr.Name())
		return r, nil
	}
	return Target{Name: "single/" + o.Proto, rig: newRig}, nil
}

// singleRig is a single-site target's rig.
type singleRig struct {
	seed int64
	key  string
	load []*workload.Txn
	cfg  txn.Config
	sys  *txn.System
	jrn  *journal.Journal
	auds []audit.Auditor
}

func (r *singleRig) run(ch sim.Chooser, _ *faults.Plan) (*Outcome, error) {
	start(r.jrn, r.seed, r.key, r.auds)
	if err := r.sys.Reset(r.cfg); err != nil {
		return nil, err
	}
	r.sys.K.SetChooser(ch)
	r.sys.Load(r.load)
	r.sys.K.Run()
	return outcome(r.jrn, r.auds, nil), nil
}

func (r *singleRig) close() { r.sys.K.Close() }

// start readies a rig's journal and auditors for the next schedule:
// the journal is rekeyed and emptied, the auditors reset and teed into
// it, so they check the schedule as it is written.
func start(j *journal.Journal, seed int64, key string, auds []audit.Auditor) {
	j.Reset(seed, key)
	for _, a := range auds {
		a.Reset()
		j.Tee(false, a)
	}
}

// outcome hashes a finished schedule's journal, whose encoding is
// already in memory, and closes the auditors that watched it.
func outcome(j *journal.Journal, auds []audit.Auditor, plan *faults.Plan) *Outcome {
	return &Outcome{JournalHash: j.HashString(), Violations: audit.Finish(auds...), FaultPlan: plan}
}

// DistributedTarget builds the exploration target for one distributed
// architecture. The distributed decision points (message delivery
// order, 2PC prepare rotation) only exist here. Unlike FaultTarget it
// never arms the fault space, so o.Space is unused.
func DistributedTarget(o FaultOpts) (Target, error) { return clusterTarget(o, false) }
