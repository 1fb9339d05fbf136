package workload

import (
	"testing"

	"ppt/internal/netsim"
)

// TestGeneratorMatchesGenerate pins the streaming contract: NewGenerator
// draws from the same seeded RNG in the same order as Generate, so the
// i-th flow from Next is bit-identical to Generate(cfg)[i].
func TestGeneratorMatchesGenerate(t *testing.T) {
	cfgs := []GenConfig{
		{Dist: WebSearch, Pattern: AllToAll{N: 8}, Load: 0.5,
			HostRate: 10 * netsim.Gbps, NumFlows: 500, Seed: 3},
		{Dist: DataMining, Pattern: Incast{N: 15, Target: 0}, Load: 0.8,
			HostRate: 40 * netsim.Gbps, NumFlows: 300, Seed: 11, StartID: 900},
		{Dist: MemcachedW1, Pattern: AllToAll{N: 24}, Load: 0.25,
			HostRate: 100 * netsim.Gbps, NumFlows: 1000, Seed: 42},
	}
	for ci, cfg := range cfgs {
		want := Generate(cfg)
		g := NewGenerator(cfg)
		if g.Remaining() != cfg.NumFlows {
			t.Fatalf("cfg %d: Remaining = %d before first Next", ci, g.Remaining())
		}
		for i, w := range want {
			f, ok := g.Next()
			if !ok {
				t.Fatalf("cfg %d: source dried up at flow %d", ci, i)
			}
			if f != w {
				t.Fatalf("cfg %d flow %d: streamed %+v != materialized %+v", ci, i, f, w)
			}
		}
		if g.Remaining() != 0 {
			t.Fatalf("cfg %d: Remaining = %d after drain", ci, g.Remaining())
		}
		for j := 0; j < 3; j++ {
			if _, ok := g.Next(); ok {
				t.Fatalf("cfg %d: Next returned a flow after exhaustion", ci)
			}
		}
	}
}
