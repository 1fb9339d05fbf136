package exp

import (
	"math/rand"
	"testing"

	"ppt/internal/workload"
)

// TestLookaheadMatrixDifferential is the randomized-shape companion to
// TestShardedDifferential: where that test fixes the fabric and sweeps
// schemes, this one sweeps the *topology* — random leaf-spine shapes,
// so the per-pair lookahead matrix (leaf↔spine at one wire delay,
// leaf↔leaf and the self-cycles at two) differs every trial, with a
// scheme drawn from the same list — and asserts the windowed output is
// byte-identical at every shard count. It also cross-checks the built matrix against an independent
// brute-force bound: every entry must not exceed the true minimum path
// delay over the wires the builder installs (the conservative
// direction; topo's own tests pin exact equality).
func TestLookaheadMatrixDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many randomized simulation cells")
	}
	rng := rand.New(rand.NewSource(1729))
	schemes := shardSchemes()
	dists := []*workload.Dist{workload.WebSearch, workload.MemcachedW1}

	trials := 5
	if raceEnabled {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		leaves, spines, perLeaf := 2+rng.Intn(3), 1+rng.Intn(3), 3+rng.Intn(5)
		fab := simFabric(leaves, spines, perLeaf)
		name := schemes[rng.Intn(len(schemes))]
		spec := runSpec{
			fab:     fab,
			dist:    dists[rng.Intn(len(dists))],
			pattern: workload.AllToAll{N: fab.hosts},
			load:    0.3 + 0.1*float64(rng.Intn(4)),
			flows:   120 + rng.Intn(180),
			seed:    1 + rng.Int63n(1000),
		}

		baseSum, _, baseEnv, _ := execute(withScheme(spec, name, 1))
		part := baseEnv.Net.Part
		if part == nil || part.Lookahead == nil {
			t.Fatalf("trial %d: partitioned build carries no lookahead matrix", trial)
		}
		// Conservative bound: adjacent shards one delay apart, nothing
		// closer than one wire, diagonal bounded by the round trip
		// through a spine. simFabric leaves LinkDelay to the builder's
		// default, so read the delay off the built network.
		n := leaves + spines
		w := baseEnv.Net.Cfg.LinkDelay
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				at := part.Lookahead.At(i, j)
				if at < w {
					t.Fatalf("trial %d: matrix entry (%d,%d)=%v below the link delay %v", trial, i, j, at, w)
				}
				iLeaf, jLeaf := i < leaves, j < leaves
				if iLeaf != jLeaf && at != w {
					t.Fatalf("trial %d: adjacent pair (%d,%d)=%v, want %v", trial, i, j, at, w)
				}
				if iLeaf == jLeaf && at != 2*w {
					t.Fatalf("trial %d: two-hop pair (%d,%d)=%v, want %v", trial, i, j, at, 2*w)
				}
			}
		}

		// Shard hints beyond the shard count, equal to it, and below it
		// (more shards than workers to claim them); shards=1 reruns the
		// base cell, which a repeat must reproduce.
		for _, shards := range []int{2, n, n + 3, 1} {
			altSum, _, altEnv, _ := execute(withScheme(spec, name, shards))
			if baseSum != altSum {
				t.Errorf("trial %d (leaves=%d spines=%d perLeaf=%d %s flows=%d seed=%d): shards=%d summary diverged\nbase: %+v\nalt:  %+v",
					trial, leaves, spines, perLeaf, name, spec.flows, spec.seed, shards, baseSum, altSum)
			}
			if baseEnv.Eff != altEnv.Eff {
				t.Errorf("trial %d (leaves=%d spines=%d perLeaf=%d %s flows=%d seed=%d): shards=%d efficiency diverged\nbase: %+v\nalt:  %+v",
					trial, leaves, spines, perLeaf, name, spec.flows, spec.seed, shards, baseEnv.Eff, altEnv.Eff)
			}
			if altEnv.ShardStats == nil || altEnv.ShardStats.Rounds == 0 {
				t.Errorf("trial %d: shards=%d run recorded no windowed instrumentation", trial, shards)
			}
		}
	}
}

// TestSpilledRepeatsParallel pins two lifted restrictions at once:
// repeats across seeds run concurrently on the worker pool even when
// every cell spills its FCT log, and spilling cells now run the
// windowed engine — Shards no longer drops to the monolithic path when
// spill engages. The serial (shards=1) and wide (parallel, shards=4)
// runs must stay byte-identical, which exercises the windowed spill
// fold's canonical ordering across worker counts.
func TestSpilledRepeatsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 70k-flow spilled cells")
	}
	base := Options{Flows: scale1MSpillChunk + 5_000, Repeats: 2, Parallel: 1,
		Schemes: []string{"ppt"}}
	serial, err := RunByID("scale1M", base)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Parallel = 2
	wide.Shards = 4 // must not disable spill, must run windowed
	parallel, err := RunByID("scale1M", wide)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parallel.Render(), serial.Render(); got != want {
		t.Fatalf("parallel spilled repeats diverged from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if len(serial.Rows) != 1 || serial.Rows[0].Extra["spilled_records"] == 0 {
		t.Fatalf("spill did not engage: %+v", serial.Rows)
	}
	if parallel.Sharding == nil || parallel.Sharding.Rounds == 0 {
		t.Fatalf("spilled cells must run the windowed engine, but no windowed instrumentation was recorded: %+v", parallel.Sharding)
	}
}
