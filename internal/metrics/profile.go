package metrics

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"rtlock/internal/journal"
)

// The lock-contention profiler derives per-object hold/wait breakdowns
// and blocking-chain stacks from the journal's records rather than from
// live probes: the journal already carries every lock request, grant,
// block (with blamed holders), and release in deterministic order, so
// the profile is exact, cannot perturb the simulation, and two
// identical runs profile byte-identically. It observes the records as
// they are appended, so a profiled run need not keep them.

// ObjectProfile aggregates one (site, object) pair's lock behavior.
type ObjectProfile struct {
	Site int32
	Obj  int32
	// Requests/Grants/Releases count lock operations on the object.
	Requests, Grants, Releases int64
	// Blocks counts blocking events (one per waiter per block, however
	// many holders were blamed).
	Blocks int64
	// HoldTicks is the total virtual time locks on the object were
	// held; WaitTicks the total time transactions sat blocked on it.
	HoldTicks, WaitTicks int64
	// MaxWaitTicks is the longest single blocked interval.
	MaxWaitTicks int64
	// InversionTicks is the waiting time during which the first blamed
	// holder had a later deadline than the waiter — priority-inversion
	// exposure in the paper's earliest-deadline priority order.
	InversionTicks int64
}

// CauseCount is one abort/restart cause tally.
type CauseCount struct {
	Cause string
	Count int64
}

// StackSample is one folded blocking-chain stack with its accumulated
// waiting time: "tx<holder>;tx<w1>@obj<o1>;…" rooted at the holding
// transaction, leaf at the blocked one, pprof-folded so flamegraph
// tooling consumes it directly.
type StackSample struct {
	Stack string
	Ticks int64
}

// RecoveryProfile aggregates crash-recovery behavior from the replay
// journal: how often sites went down and for how long, how much
// prepared-vote state WAL redo reinstated, and how many in-doubt
// resolution retries ran or exhausted their budget. All zeros for runs
// without faults.
type RecoveryProfile struct {
	// Crashes and Recoveries count site outages and completed
	// recoveries.
	Crashes, Recoveries int64
	// DownTicks is the total virtual time sites spent crashed, summed
	// over closed crash-recover pairs; MaxDownTicks the longest single
	// outage.
	DownTicks, MaxDownTicks int64
	// RedoVotes counts prepared votes reinstated by WAL redo.
	RedoVotes int64
	// Retries and RetryExhausted count 2PC retry attempts and retry
	// budgets that ran dry.
	Retries, RetryExhausted int64
}

// Profile is the journal-derived contention report.
type Profile struct {
	// TopK bounds Objects; every object is still aggregated into the
	// totals.
	TopK int
	// Objects holds the K hottest objects by waiting time (ties broken
	// by holding time, then site and object id).
	Objects []ObjectProfile
	// Stacks are the folded blocking chains, sorted by stack string.
	Stacks []StackSample
	// Causes tallies abort/restart causes (wound, restart,
	// deadline_miss, site_crash), sorted by cause.
	Causes []CauseCount
	// ChainMax is the longest blocking chain observed (in transactions,
	// including the holder).
	ChainMax int
	// Recovery summarizes crash-recovery activity (faulted runs only).
	Recovery RecoveryProfile
	// Totals across every object.
	TotalWaitTicks, TotalHoldTicks, TotalInversionTicks int64
	TotalObjects                                        int

	// ranked holds every object in Objects' order; Top cuts from it.
	ranked []ObjectProfile
}

type objKey struct {
	site int32
	obj  int32
}

type holdKey struct {
	site int32
	tx   int64
	obj  int32
}

// waitState is one transaction's open blocked interval.
type waitState struct {
	site     int32
	obj      int32
	start    int64
	blamed   int64 // first blamed holder, -1 when anonymous
	inverted bool
	stack    string
	depth    int
}

// defaultTopK is the object-table size when none is asked for.
const defaultTopK = 10

// Profiler is a journal observer that builds the contention profile as
// the run goes: tee it onto a run's journal, or feed it a finished one
// through FromJournal, then call Finish once after the last record.
type Profiler struct {
	p         *Profile
	objs      map[objKey]*ObjectProfile
	holds     map[holdKey]int64
	waits     map[int64]*waitState // by waiter tx id
	deadlines map[int64]int64
	stacks    map[string]int64
	causes    map[string]int64
	crashAt   map[int32]int64 // open outages by site
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		p:         &Profile{},
		objs:      make(map[objKey]*ObjectProfile),
		holds:     make(map[holdKey]int64),
		waits:     make(map[int64]*waitState),
		deadlines: make(map[int64]int64),
		stacks:    make(map[string]int64),
		causes:    make(map[string]int64),
		crashAt:   make(map[int32]int64),
	}
}

// FromJournal builds the contention profile by replaying a journal
// through a Profiler. A nil or empty journal yields an empty profile.
// topK bounds the object table (<= 0 picks 10).
func FromJournal(j *journal.Journal, topK int) *Profile {
	pr := NewProfiler()
	j.Each(pr.Observe)
	return pr.Finish().Top(topK)
}

func (pr *Profiler) obj(site, o int32) *ObjectProfile {
	k := objKey{site: site, obj: o}
	op, ok := pr.objs[k]
	if !ok {
		op = &ObjectProfile{Site: site, Obj: o}
		pr.objs[k] = op
	}
	return op
}

func (pr *Profiler) closeWait(ws *waitState, tx, at int64) {
	elapsed := at - ws.start
	if elapsed < 0 {
		elapsed = 0
	}
	op := pr.obj(ws.site, ws.obj)
	op.WaitTicks += elapsed
	if elapsed > op.MaxWaitTicks {
		op.MaxWaitTicks = elapsed
	}
	if ws.inverted {
		op.InversionTicks += elapsed
	}
	pr.stacks[ws.stack] += elapsed
	delete(pr.waits, tx)
}

// Observe folds one journal record into the profile.
func (pr *Profiler) Observe(rec *journal.Record) {
	p := pr.p
	switch rec.Kind {
	case journal.KArrive:
		if _, ok := pr.deadlines[rec.Tx]; !ok {
			pr.deadlines[rec.Tx] = rec.A
		}
	case journal.KLockRequest:
		pr.obj(rec.Site, rec.Obj).Requests++
	case journal.KLockGrant:
		pr.obj(rec.Site, rec.Obj).Grants++
		pr.holds[holdKey{site: rec.Site, tx: rec.Tx, obj: rec.Obj}] = rec.At
		if ws, ok := pr.waits[rec.Tx]; ok && ws.site == rec.Site && ws.obj == rec.Obj {
			pr.closeWait(ws, rec.Tx, rec.At)
		}
	case journal.KLockBlock:
		if ws, ok := pr.waits[rec.Tx]; ok {
			if ws.site == rec.Site && ws.obj == rec.Obj && ws.start == rec.At {
				break // additional blamed holder of the same event
			}
			// A new block before the old one closed (restart path):
			// close the stale interval at its own start.
			pr.closeWait(ws, rec.Tx, rec.At)
		}
		ws := &waitState{site: rec.Site, obj: rec.Obj, start: rec.At, blamed: rec.A}
		ws.inverted = rec.A >= 0 && pr.deadlines[rec.A] > pr.deadlines[rec.Tx]
		ws.stack, ws.depth = foldChain(rec.Tx, rec.Obj, rec.A, pr.waits)
		if ws.depth > p.ChainMax {
			p.ChainMax = ws.depth
		}
		pr.waits[rec.Tx] = ws
		pr.obj(rec.Site, rec.Obj).Blocks++
	case journal.KLockRelease:
		op := pr.obj(rec.Site, rec.Obj)
		op.Releases++
		hk := holdKey{site: rec.Site, tx: rec.Tx, obj: rec.Obj}
		if from, ok := pr.holds[hk]; ok {
			op.HoldTicks += rec.At - from
			delete(pr.holds, hk)
		}
	case journal.KUnregister:
		if ws, ok := pr.waits[rec.Tx]; ok {
			pr.closeWait(ws, rec.Tx, rec.At)
		}
	case journal.KWound:
		pr.causes["wound"]++
	case journal.KRestart:
		pr.causes["restart"]++
	case journal.KDeadlineMiss:
		if rec.Note == "crashed" {
			pr.causes["site_crash"]++
		} else {
			pr.causes["deadline_miss"]++
		}
	case journal.KSiteCrash:
		p.Recovery.Crashes++
		pr.crashAt[rec.Site] = rec.At
	case journal.KSiteRecover:
		p.Recovery.Recoveries++
		if from, ok := pr.crashAt[rec.Site]; ok {
			down := rec.At - from
			p.Recovery.DownTicks += down
			if down > p.Recovery.MaxDownTicks {
				p.Recovery.MaxDownTicks = down
			}
			delete(pr.crashAt, rec.Site)
		}
	case journal.KWALRedo:
		p.Recovery.RedoVotes += rec.A
	case journal.KRetry:
		p.Recovery.Retries++
	case journal.KRetryExhausted:
		p.Recovery.RetryExhausted++
	}
}

// Finish ranks the objects, totals them, and sorts the stacks and
// causes into the finished profile, whose object table holds the 10
// hottest objects (Top cuts it to another size).
func (pr *Profiler) Finish() *Profile {
	p := pr.p
	// Aggregate totals and rank every object, sorting outside the map
	// range so iteration order cannot leak.
	all := make([]ObjectProfile, 0, len(pr.objs))
	for _, op := range pr.objs {
		all = append(all, *op)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.WaitTicks != b.WaitTicks {
			return a.WaitTicks > b.WaitTicks
		}
		if a.HoldTicks != b.HoldTicks {
			return a.HoldTicks > b.HoldTicks
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Obj < b.Obj
	})
	p.TotalObjects = len(all)
	for i := range all {
		p.TotalWaitTicks += all[i].WaitTicks
		p.TotalHoldTicks += all[i].HoldTicks
		p.TotalInversionTicks += all[i].InversionTicks
	}
	p.ranked = all
	p.TopK = defaultTopK
	p.Objects = p.top(defaultTopK)

	stackKeys := make([]string, 0, len(pr.stacks))
	for s := range pr.stacks {
		stackKeys = append(stackKeys, s)
	}
	sort.Strings(stackKeys)
	for _, s := range stackKeys {
		if pr.stacks[s] > 0 {
			p.Stacks = append(p.Stacks, StackSample{Stack: s, Ticks: pr.stacks[s]})
		}
	}

	causeKeys := make([]string, 0, len(pr.causes))
	for cause := range pr.causes {
		causeKeys = append(causeKeys, cause)
	}
	sort.Strings(causeKeys)
	for _, cause := range causeKeys {
		p.Causes = append(p.Causes, CauseCount{Cause: cause, Count: pr.causes[cause]})
	}
	return p
}

// Top returns a copy of the profile whose object table holds the k
// hottest objects (k <= 0 picks 10), as FromJournal with that topK
// would have built it.
func (p *Profile) Top(k int) *Profile {
	if k <= 0 {
		k = defaultTopK
	}
	q := *p
	q.TopK = k
	q.Objects = p.top(k)
	return &q
}

// top copies the k hottest ranked objects; nil when there are none.
func (p *Profile) top(k int) []ObjectProfile {
	return append([]ObjectProfile(nil), p.ranked[:min(k, len(p.ranked))]...)
}

// foldChain renders the blocking chain for a waiter blamed on holder
// `blamed` as a folded stack rooted at the ultimate holder, following
// transitive waits through the currently open block table. It returns
// the stack and the chain length in transactions.
func foldChain(tx int64, obj int32, blamed int64, waits map[int64]*waitState) (string, int) {
	// Leaf-to-root frames: the waiter, then each blocked transaction on
	// the blame path, then the transaction actually holding a lock.
	frames := []string{fmt.Sprintf("tx%d@obj%d", tx, obj)}
	seen := map[int64]bool{tx: true}
	cur := blamed
	for cur >= 0 && !seen[cur] {
		seen[cur] = true
		ws, ok := waits[cur]
		if !ok {
			frames = append(frames, fmt.Sprintf("tx%d", cur))
			break
		}
		frames = append(frames, fmt.Sprintf("tx%d@obj%d", cur, ws.obj))
		cur = ws.blamed
	}
	if blamed < 0 {
		frames = append(frames, "ceiling")
	}
	var b bytes.Buffer
	for i := len(frames) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(frames[i])
	}
	return b.String(), len(frames)
}

// WriteFolded renders the blocking chains in pprof's folded-stack
// format — `frame;frame;frame ticks` per line, sorted — ready for
// flamegraph tooling.
func (p *Profile) WriteFolded(w io.Writer) error {
	if p == nil {
		return nil
	}
	var b bytes.Buffer
	for _, s := range p.Stacks {
		fmt.Fprintf(&b, "%s %d\n", s.Stack, s.Ticks)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Folded returns the folded-stack export as a byte slice.
func (p *Profile) Folded() []byte {
	var b bytes.Buffer
	_ = p.WriteFolded(&b)
	return b.Bytes()
}

// String renders the top-K hot-object table and cause tallies as an
// aligned text report.
func (p *Profile) String() string {
	if p == nil {
		return ""
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "lock contention: %d objects contended, wait=%.1fms hold=%.1fms inversion=%.1fms chain<=%d\n",
		p.TotalObjects, float64(p.TotalWaitTicks)/1000, float64(p.TotalHoldTicks)/1000,
		float64(p.TotalInversionTicks)/1000, p.ChainMax)
	if len(p.Objects) > 0 {
		fmt.Fprintf(&b, "%-6s %-6s %8s %8s %8s %12s %12s %12s\n",
			"site", "obj", "reqs", "blocks", "grants", "wait_ms", "hold_ms", "maxwait_ms")
		for _, o := range p.Objects {
			fmt.Fprintf(&b, "%-6d %-6d %8d %8d %8d %12.1f %12.1f %12.1f\n",
				o.Site, o.Obj, o.Requests, o.Blocks, o.Grants,
				float64(o.WaitTicks)/1000, float64(o.HoldTicks)/1000, float64(o.MaxWaitTicks)/1000)
		}
	}
	for _, c := range p.Causes {
		fmt.Fprintf(&b, "cause %-14s %d\n", c.Cause, c.Count)
	}
	if r := p.Recovery; r != (RecoveryProfile{}) {
		fmt.Fprintf(&b, "recovery: crashes=%d recoveries=%d down=%.1fms maxdown=%.1fms redo_votes=%d retries=%d exhausted=%d\n",
			r.Crashes, r.Recoveries, float64(r.DownTicks)/1000, float64(r.MaxDownTicks)/1000,
			r.RedoVotes, r.Retries, r.RetryExhausted)
	}
	return b.String()
}
