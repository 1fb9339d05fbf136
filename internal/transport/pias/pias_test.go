package pias

import (
	"testing"

	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
}

func TestDemotionThresholds(t *testing.T) {
	cases := []struct {
		sent int64
		want int8
	}{
		{0, 0}, {49_999, 0}, {50_000, 1}, {199_999, 2}, {999_999, 4},
		{4_999_999, 5}, {19_999_999, 6}, {20_000_000, 7},
	}
	for _, c := range cases {
		if got := prio(c.sent); got != c.want {
			t.Errorf("prio(%d) = %d, want %d", c.sent, got, c.want)
		}
	}
}

func TestSmallFlowsBypassElephant(t *testing.T) {
	// PIAS's reason to exist: small flows arriving while an elephant
	// (demoted to a low priority) transmits should see near-solo FCTs,
	// much better than under plain DCTCP.
	run := func(p transport.Protocol) stats.Summary {
		env := transporttest.NewStarEnv(4)
		transporttest.MustComplete(t, env, p, transporttest.MixedFlows(8, 10_000_000, 20_000))
		return env.Collector.Summarize()
	}
	piasSum := run(Proto{})
	dctcpSum := run(dctcp.Proto{})
	if float64(piasSum.SmallAvg) > 0.9*float64(dctcpSum.SmallAvg) {
		t.Fatalf("PIAS small avg %v not better than DCTCP %v",
			piasSum.SmallAvg, dctcpSum.SmallAvg)
	}
}

func TestElephantNotStarved(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	sum := transporttest.MustComplete(t, env, Proto{}, transporttest.MixedFlows(8, 10_000_000, 20_000))
	// The elephant (10MB at 10G = 8ms solo) must finish within a sane
	// multiple despite demotion.
	if sum.LargeAvg > 40*sim.Millisecond {
		t.Fatalf("elephant FCT %v: starved", sum.LargeAvg)
	}
}
