package exp

import (
	"math/rand"
	"testing"

	"ppt/internal/workload"
)

// TestShardedDifferential is the randomized equivalence proof for the
// conservative windowed engine (DESIGN.md §7.3): for a batch of
// randomly drawn (scheme, flows, load, seed) cells on the
// oversubscribed leaf-spine fabric, every shard hint (worker count)
// must produce an identical summary and identical efficiency counters
// — the determinism claim behind `-shards` being a pure performance
// knob.
// The workload is sized so the compared runs execute well over two
// million scheduler events in total, asserted at the end so a silently
// shrunken workload fails loudly instead of hollowing out the
// guarantee.
//
// The monolithic engine (Config.Shards == 0) is deliberately NOT part
// of this matrix: at same-instant cross-shard arrival ties the windowed
// engine merges in canonical (time, srcShard, seq) order while the
// monolithic scheduler uses global insertion order, so the two engines
// are each deterministic but order packets at exact ties differently —
// the standard conservative-PDES property. Agreement at the golden
// workload sizes is pinned by TestGoldenOutputs, whose files predate
// the windowed engine.
func TestShardedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many randomized simulation cells")
	}
	rng := rand.New(rand.NewSource(42))
	all := baseSchemes()
	schemes := []string{"ppt", "dctcp", "tcp10"}
	dists := []*workload.Dist{workload.WebSearch, workload.DataMining}
	fab := simFabric(3, 2, 8)

	var totalEvents uint64
	trials := 4
	if raceEnabled {
		// The race detector slows these memory-heavy cells 10-20x; one
		// trial still exercises every shard hint below
		// on tens of millions of events and keeps `go test -race ./...`
		// inside the default package timeout.
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		spec := runSpec{
			fab:     fab,
			sc:      all[schemes[rng.Intn(len(schemes))]],
			dist:    dists[rng.Intn(len(dists))],
			pattern: workload.AllToAll{N: fab.hosts},
			load:    0.4 + 0.1*float64(rng.Intn(3)),
			flows:   100 + rng.Intn(200),
			seed:    1 + rng.Int63n(1000),
		}

		base := spec
		base.shards = 1
		baseSum, _, baseEnv := execute(base)
		totalEvents += baseEnv.Net.Executed()
		if baseEnv.Net.Part == nil {
			t.Fatalf("trial %d: shards=1 did not build a partitioned fabric", trial)
		}

		// shards=1 reruns the base cell: a repeat must reproduce it.
		for _, shards := range []int{2, 4, 8, 1} {
			alt := spec
			alt.shards = shards
			altSum, _, altEnv := execute(alt)
			totalEvents += altEnv.Net.Executed()
			if baseSum != altSum {
				t.Errorf("trial %d (%s flows=%d load=%g seed=%d): shards=%d summary diverged from shards=1\nbase: %+v\nalt:  %+v",
					trial, spec.sc.name, spec.flows, spec.load, spec.seed, shards, baseSum, altSum)
			}
			if baseEnv.Eff != altEnv.Eff {
				t.Errorf("trial %d (%s flows=%d load=%g seed=%d): shards=%d efficiency counters diverged from shards=1\nbase: %+v\nalt:  %+v",
					trial, spec.sc.name, spec.flows, spec.load, spec.seed, shards, baseEnv.Eff, altEnv.Eff)
			}
		}
	}
	const minEvents = 2_000_000
	if totalEvents < minEvents {
		t.Fatalf("differential compared only %d scheduler events; want >= %d — grow the trial sizes", totalEvents, minEvents)
	}
	t.Logf("compared %d scheduler events across %d trials", totalEvents, trials)
}
