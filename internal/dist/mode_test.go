package dist

import (
	"slices"
	"testing"

	"rtlock/internal/core"
	"rtlock/internal/db"
	"rtlock/internal/journal"
	"rtlock/internal/place"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// pipelineLoad is the one small load every mode runs in TestModePipeline:
// 3 sites over 30 range-partitioned objects (10 per site), transactions
// a second apart so none contends. The first five are the single
// transactions the per-mode micro tests time; the last spans all three
// shards.
func pipelineLoad() []*workload.Txn {
	at := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Second) }
	tx := func(id int64, home db.SiteID, ops ...workload.Op) *workload.Txn {
		return mkDistTxn(id, home, at(int(id)), at(int(id))+sim.Time(900*sim.Millisecond), ops)
	}
	r := func(obj core.ObjectID) workload.Op { return workload.Op{Obj: obj, Mode: core.Read} }
	w := func(obj core.ObjectID) workload.Op { return workload.Op{Obj: obj, Mode: core.Write} }
	return []*workload.Txn{
		tx(1, 1, w(10)),              // home-primary write, away from the GCM
		tx(2, 0, w(0)),               // home-primary write at the GCM site
		tx(3, 1, r(20)),              // remote read
		tx(4, 1, w(20)),              // remote write: 2PC
		tx(5, 1, w(10), w(11)),       // two home-primary writes
		tx(6, 2, r(0), w(12), w(25)), // three shards, a remote and a home write
	}
}

// wantPins is the pin set the mode's row promises for t: the sites whose
// managers journal a KRegister, ascending.
func wantPins(m Mode, c *Cluster, t *workload.Txn) []db.SiteID {
	switch m {
	case Local:
		return []db.SiteID{t.Home}
	case Global:
		return []db.SiteID{c.Config().GCMSite}
	case Shard, Quorum:
		var sites []db.SiteID
		for _, op := range t.Ops {
			sites = addSite(sites, c.Catalog.PrimarySite(op.Obj))
		}
		return sites
	default:
		return nil
	}
}

// addSite inserts site into an ascending, duplicate-free list.
func addSite(list []db.SiteID, site db.SiteID) []db.SiteID {
	if i, found := slices.BinarySearch(list, site); !found {
		list = slices.Insert(list, i, site)
	}
	return list
}

// wantMessages is the fault-free closed form of TxRecord.Messages: one
// message per remote registration and release, two per remote request
// (lock trip, data trip, quorum round member), three per 2PC participant
// (prepare, vote, decision), one per replica a local commit ships to.
func wantMessages(m Mode, c *Cluster, t *workload.Txn) int {
	sites, home := c.Config().Sites, t.Home
	var participants []db.SiteID // distinct remote primaries written
	trips, writes, reads := 0, 0, 0
	for _, op := range t.Ops {
		owner := c.Catalog.PrimarySite(op.Obj)
		if owner != home {
			trips++
		}
		if op.Mode == core.Read {
			reads++
			continue
		}
		writes++
		if owner != home {
			participants = addSite(participants, owner)
		}
	}
	remoteWritten := len(participants)
	remotePins := 0
	for _, s := range wantPins(m, c, t) {
		if s != home {
			remotePins++
		}
	}
	switch m {
	case Local:
		if writes > 0 {
			return sites - 1
		}
		return 0
	case Global:
		return 2*remotePins + 2*remotePins*len(t.Ops) + 2*trips + 3*remoteWritten
	case Shard:
		return 2*remotePins + 2*trips + 3*remoteWritten
	case Quorum:
		pm := c.Catalog.Placement()
		rounds := writes
		if pm.ReadQuorum() > 1 {
			rounds += reads
		}
		return 2*remotePins + 2*trips + 3*remoteWritten + 2*(pm.ReplicaCount()-1)*rounds
	default:
		return 2 * trips
	}
}

// TestModePipeline runs one load under all five modes and checks, per
// committed transaction, what the shared pipeline promises: the journal's
// phase order (arrive, register × pins, operations, 2PC, quorum writes,
// release at home, commit, remote releases), the mode row's pin set, and
// the message count against the per-mode closed form.
func TestModePipeline(t *testing.T) {
	const (
		arrive = iota
		register
		op
		twoPC
		quorumWrite
		homeRelease
		commit
		remoteRelease
	)
	for m := Local; m <= Primary; m++ {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			conf := cfg(m, sim.Millisecond) // registrations land before the first 10ms access ends
			conf.Journal = journal.New(1, "pipeline/"+m.String())
			c, err := NewCluster(conf)
			if err != nil {
				t.Fatal(err)
			}
			load := pipelineLoad()
			c.Load(load)
			if sum := c.Run(); sum.Committed != len(load) {
				t.Fatalf("committed %d of %d: %+v", sum.Committed, len(load), sum)
			}
			recs := c.Monitor.Records()
			for i, tx := range load {
				var phases []int
				var pins []db.SiteID
				for _, r := range conf.Journal.Records() {
					if r.Tx != tx.ID {
						continue
					}
					home := db.SiteID(r.Site) == tx.Home
					switch {
					case r.Kind == journal.KArrive:
						phases = append(phases, arrive)
					case r.Kind == journal.KRegister:
						phases = append(phases, register)
						pins = append(pins, db.SiteID(r.Site))
					case r.Kind == journal.KOp:
						phases = append(phases, op)
					case r.Kind == journal.KTwoPCPrepare, r.Kind == journal.KTwoPCDecision && r.Note == "coord":
						phases = append(phases, twoPC)
					case r.Kind == journal.KQuorumWrite:
						phases = append(phases, quorumWrite)
					case r.Kind == journal.KUnregister && home:
						phases = append(phases, homeRelease)
					case r.Kind == journal.KCommit:
						phases = append(phases, commit)
					case r.Kind == journal.KUnregister:
						phases = append(phases, remoteRelease)
					}
				}
				if len(phases) == 0 || phases[0] != arrive || phases[len(phases)-1] < commit {
					t.Fatalf("tx %d: phases %v do not run from arrive to commit", tx.ID, phases)
				}
				for k := 1; k < len(phases); k++ {
					if phases[k] < phases[k-1] {
						t.Fatalf("tx %d: phase order broken at %d: %v", tx.ID, k, phases)
					}
				}
				want := wantPins(m, c, tx)
				if slices.Sort(pins); !slices.Equal(pins, want) {
					t.Fatalf("tx %d: registered at %v, want %v", tx.ID, pins, want)
				}
				released := 0
				for _, ph := range phases {
					if ph == homeRelease || ph == remoteRelease {
						released++
					}
				}
				if released != len(want) {
					t.Fatalf("tx %d: %d releases for %d pins", tx.ID, released, len(want))
				}
				if got, want := recs[i].Messages, wantMessages(m, c, tx); got != want {
					t.Fatalf("tx %d: %d messages, closed form says %d", tx.ID, got, want)
				}
			}
		})
	}
}

// TestNetReportReadOnly checks that reading the message-layer report
// after a run neither journals anything nor starts a process, in every
// mode (primary registers no handler, so it has no message servers).
func TestNetReportReadOnly(t *testing.T) {
	for m := Local; m <= Primary; m++ {
		conf := cfg(m, sim.Millisecond)
		conf.Journal = journal.New(1, "netreport/"+m.String())
		c, err := NewCluster(conf)
		if err != nil {
			t.Fatal(err)
		}
		c.Load(pipelineLoad())
		c.Run()
		records, live := conf.Journal.Len(), c.K.Live()
		c.NetReport()
		if conf.Journal.Len() != records || c.K.Live() != live {
			t.Errorf("%s: NetReport moved the journal %d -> %d records and live processes %d -> %d",
				m, records, conf.Journal.Len(), live, c.K.Live())
		}
	}
}

// TestModeFor pins the facade's (Global, placement) resolution, the one
// home of the rule that a placement cannot be combined with Global.
func TestModeFor(t *testing.T) {
	for _, tc := range []struct {
		global bool
		pol    place.Policy
		want   Mode
		err    string
	}{
		{false, 0, Local, ""},
		{true, 0, Global, ""},
		{false, place.Full, Local, ""},
		{false, place.Sharded, Shard, ""},
		{false, place.Quorum, Quorum, ""},
		{false, place.PrimaryOnly, Primary, ""},
		{true, place.Full, 0, "dist: placement full selects its own execution model; Global must be false"},
		{true, place.Sharded, 0, "dist: placement shard selects its own execution model; Global must be false"},
		{true, place.Quorum, 0, "dist: placement quorum selects its own execution model; Global must be false"},
		{true, place.PrimaryOnly, 0, "dist: placement primary selects its own execution model; Global must be false"},
		{false, place.Policy(9), 0, "dist: unknown placement policy 9"},
	} {
		got, err := ModeFor(tc.global, tc.pol)
		if (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) || got != tc.want {
			t.Errorf("ModeFor(%t, %v) = %v, %v; want %v, %q", tc.global, tc.pol, got, err, tc.want, tc.err)
		}
	}
	if !Local.LocalWriteSets() || !Global.LocalWriteSets() || Shard.LocalWriteSets() ||
		Quorum.LocalWriteSets() || Primary.LocalWriteSets() {
		t.Error("LocalWriteSets: want true for local and global only")
	}
}
