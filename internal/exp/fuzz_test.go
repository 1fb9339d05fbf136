package exp

import (
	"testing"

	"ppt/internal/workload"
)

// FuzzShardInvariance draws a scheme, a small leaf-spine shape, a
// workload and a worker count K, and requires the cell to run without a
// panic, pass the run-end audit (execute runs auditNet under the package
// tests) and give the same Summary and efficiency counters at -shards K
// as at -shards 1. Each input decodes into:
//
//   - scheme: an index into shardSchemes (baseSchemes in name order,
//     then the hypothetical DCTCP);
//   - leaves 2–4, spines 1–3, hosts per leaf 1–4;
//   - flows 1–40 of web search at load 0.1–0.9, and the workload seed;
//   - K from 2 to 4.
func FuzzShardInvariance(f *testing.F) {
	names := shardSchemes()
	index := make(map[string]uint8, len(names))
	for i, name := range names {
		index[name] = uint8(i)
	}
	// The golden cases' leaf-spine cells: web search at load 0.5 on
	// three leaves and two spines, each scheme at its case's flows and
	// seed (hosts per leaf capped at 4).
	for _, gc := range []struct {
		schemes []string
		flows   uint8
		seed    int64
	}{
		{simSchemes, 24, 1},                     // fig12
		{[]string{"swift", "swift+ppt"}, 24, 2}, // fig14
		{[]string{"hpcc", "hpcc+ppt"}, 20, 1},   // extb
		{[]string{"tcp10", "halfback", "dctcp", "rc3", "pias", "hpcc", "ppt"}, 20, 5}, // reactive
		{[]string{"expresspass", "ndp", "homa", "aeolus", "ppt"}, 20, 5},              // proactive
	} {
		for i, name := range gc.schemes {
			f.Add(index[name], uint8(1), uint8(1), uint8(3), gc.flows-1, uint8(4), gc.seed, uint8(i))
		}
	}
	f.Add(index["hypothetical"], uint8(0), uint8(0), uint8(0), uint8(39), uint8(8), int64(7), uint8(2))
	f.Fuzz(func(t *testing.T, sc, leaves, spines, perLeaf, flows, load uint8, seed int64, k uint8) {
		name := names[int(sc)%len(names)]
		fab := simFabric(2+int(leaves)%3, 1+int(spines)%3, 1+int(perLeaf)%4)
		spec := runSpec{
			fab:     fab,
			dist:    workload.WebSearch,
			pattern: workload.AllToAll{N: fab.hosts},
			load:    float64(1+load%9) / 10,
			flows:   1 + int(flows)%40,
			seed:    seed,
		}
		shards := 2 + int(k)%3
		base, _, baseEnv, _ := execute(withScheme(spec, name, 1))
		alt, _, altEnv, _ := execute(withScheme(spec, name, shards))
		if base != alt {
			t.Fatalf("%s on %d-%d-%d, %d flows at load %g, seed %d: shards=%d summary diverged from shards=1\nbase: %+v\nalt:  %+v",
				name, fab.leaves, fab.spines, fab.perLeaf, spec.flows, spec.load, seed, shards, base, alt)
		}
		if baseEnv.Eff != altEnv.Eff {
			t.Fatalf("%s on %d-%d-%d, %d flows at load %g, seed %d: shards=%d efficiency diverged from shards=1\nbase: %+v\nalt:  %+v",
				name, fab.leaves, fab.spines, fab.perLeaf, spec.flows, spec.load, seed, shards, baseEnv.Eff, altEnv.Eff)
		}
	})
}
