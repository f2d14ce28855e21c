package dist

import (
	"testing"

	"rtlock/internal/faults"
	"rtlock/internal/journal"
	"rtlock/internal/sim"
	"rtlock/internal/workload"
)

// TestLoadStreamJournalsIdentically pins that a streamed cluster load
// runs exactly as the same load preloaded in every mode, arrivals lost
// at a crashed home site included.
func TestLoadStreamJournalsIdentically(t *testing.T) {
	const count = 150
	for m := Local; m <= Primary; m++ {
		run := func(stream bool) (*journal.Journal, *Cluster) {
			conf := cfg(m, sim.Millisecond)
			conf.Journal = journal.New(3, "stream/"+m.String())
			c, err := NewCluster(conf)
			if err != nil {
				t.Fatal(err)
			}
			crash := faults.Crash{Site: 1, At: int64(200 * sim.Millisecond), RecoverAt: int64(400 * sim.Millisecond)}
			if err := c.AttachFaults(&faults.Plan{Crashes: []faults.Crash{crash}}, 3); err != nil {
				t.Fatal(err)
			}
			p := workload.Params{
				Seed: 3, Catalog: c.Catalog, Count: count,
				MeanInterarrival: 5 * sim.Millisecond, MeanSize: 2, ReadOnlyFrac: 0.3,
				SlackMin: 4, SlackMax: 8, PerObjCost: 10 * sim.Millisecond,
				LocalWriteSets: m.LocalWriteSets(),
			}
			if stream {
				src, err := workload.NewStream(p)
				if err != nil {
					t.Fatal(err)
				}
				c.LoadStream(src)
			} else {
				txs, err := workload.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				c.Load(txs)
			}
			c.Run()
			return conf.Journal, c
		}
		preloaded, _ := run(false)
		streamed, c := run(true)
		if !journal.Equal(preloaded, streamed) {
			t.Fatalf("%s: streamed journal differs from preloaded:\n%s", m, journal.Diff(preloaded, streamed))
		}
		if got := len(c.Monitor.Records()); got != count {
			t.Fatalf("%s: %d records, want %d", m, got, count)
		}
		recs := streamed.Records()
		lost := 0
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Kind == journal.KArrive && recs[i].Kind == journal.KDeadlineMiss &&
				recs[i].Tx == recs[i-1].Tx && recs[i].Note == "crashed" {
				lost++
			}
		}
		if lost == 0 {
			t.Fatalf("%s: no arrival landed on the crashed site", m)
		}
	}
}
