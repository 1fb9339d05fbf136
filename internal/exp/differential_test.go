package exp

import (
	"math/rand"
	"sort"
	"testing"

	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// TestShardedDifferential is the randomized equivalence proof for the
// conservative windowed engine (DESIGN.md §7.3): for one randomly drawn
// (flows, load, seed, distribution) cell per scheme — every scheme of
// baseSchemes and the two-pass hypothetical DCTCP — on the
// oversubscribed leaf-spine fabric, every shard hint (worker count)
// must produce an identical summary and identical efficiency counters
// — the determinism claim behind `-shards` being a pure performance
// knob.
// The workload is sized so the compared runs execute well over two
// million scheduler events in total, asserted at the end so a silently
// shrunken workload fails loudly instead of hollowing out the
// guarantee.
//
// Every leaf-spine cell runs this engine: topo.LeafSpine always builds
// its partition, so no single-scheduler leaf-spine run exists to
// compare against. The single-scheduler driver (RunSource's own loop)
// serves star fabrics only, where the two drivers never meet.
func TestShardedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many randomized simulation cells")
	}
	rng := rand.New(rand.NewSource(42))
	schemes := shardSchemes()
	dists := []*workload.Dist{workload.WebSearch, workload.DataMining}
	fab := simFabric(3, 2, 8)

	if raceEnabled {
		// The race detector slows these memory-heavy cells 10-20x; one
		// drawn scheme still exercises every shard hint below on
		// millions of events and keeps `go test -race ./...` inside the
		// default package timeout. Every scheme runs outside -race.
		schemes = []string{schemes[rng.Intn(len(schemes))]}
	}
	var totalEvents uint64
	for trial, name := range schemes {
		spec := runSpec{
			fab:     fab,
			dist:    dists[rng.Intn(len(dists))],
			pattern: workload.AllToAll{N: fab.hosts},
			load:    0.4 + 0.1*float64(rng.Intn(3)),
			flows:   30 + rng.Intn(40),
			seed:    1 + rng.Int63n(1000),
		}

		baseSum, _, baseEnv, _ := execute(withScheme(spec, name, 1))
		totalEvents += baseEnv.Net.Executed()
		if baseEnv.Net.Part == nil {
			t.Fatalf("trial %d: shards=1 did not build a partitioned fabric", trial)
		}

		// shards=1 reruns the base cell: a repeat must reproduce it.
		for _, shards := range []int{2, 4, 8, 1} {
			altSum, _, altEnv, _ := execute(withScheme(spec, name, shards))
			totalEvents += altEnv.Net.Executed()
			if baseSum != altSum {
				t.Errorf("trial %d (%s flows=%d load=%g seed=%d): shards=%d summary diverged from shards=1\nbase: %+v\nalt:  %+v",
					trial, name, spec.flows, spec.load, spec.seed, shards, baseSum, altSum)
			}
			if baseEnv.Eff != altEnv.Eff {
				t.Errorf("trial %d (%s flows=%d load=%g seed=%d): shards=%d efficiency counters diverged from shards=1\nbase: %+v\nalt:  %+v",
					trial, name, spec.flows, spec.load, spec.seed, shards, baseEnv.Eff, altEnv.Eff)
			}
		}
	}
	const minEvents = 2_000_000
	if totalEvents < minEvents {
		t.Fatalf("differential compared only %d scheduler events; want >= %d — grow the trial sizes", totalEvents, minEvents)
	}
	t.Logf("compared %d scheduler events across %d schemes", totalEvents, len(schemes))
}

// shardSchemes names every scheme the shard-count invariance tests draw
// from: each scheme of baseSchemes, in name order, and "hypothetical",
// the two-pass hypothetical DCTCP of figs 2–3 (see withScheme).
func shardSchemes() []string {
	var names []string
	for name := range baseSchemes() {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, "hypothetical")
}

// withScheme returns spec running the named shardSchemes entry at the
// given shard hint. The hypothetical's first pass runs on spec too, at
// the same hint.
func withScheme(spec runSpec, name string, shards int) runSpec {
	spec.shards = shards
	spec.proto = baseSchemes()[name]
	if name == "hypothetical" {
		spec.proto = ppt.Oracle{FillFraction: 1.0}
	}
	return spec
}
