package aeolus

import (
	"testing"

	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithDroppable(20_000))
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
	if sum.OverallAvg < 1600*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestTinyFlowFirstRTT(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithDroppable(20_000))
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 5_000},
	})
	if sum.OverallAvg > env.BaseRTT() {
		t.Fatalf("tiny flow FCT %v", sum.OverallAvg)
	}
}

func TestUnscheduledSelectivelyDropped(t *testing.T) {
	// A heavy incast: the droppable unscheduled packets must be shed at
	// the switch (selective drop), and every flow must still complete
	// via scheduled retransmission.
	env := transporttest.NewStarEnv(9, transporttest.WithDroppable(10_000))
	env.RTOMin = 300 * sim.Microsecond
	flows := transporttest.IncastFlows(8, 400_000)
	transporttest.MustComplete(t, env, Proto{}, flows)
	var dropsLow int64
	for _, p := range env.Net.SwitchPorts() {
		dropsLow += p.Stats.DropsLow
	}
	if dropsLow == 0 {
		t.Fatal("no selective drops under incast")
	}
}

func TestProbeSurvivesIncast(t *testing.T) {
	// The first packet of each flow is not droppable, so the receiver
	// always learns of every flow even under selective dropping.
	env := transporttest.NewStarEnv(17, transporttest.WithDroppable(5_000))
	env.RTOMin = 300 * sim.Microsecond
	flows := transporttest.IncastFlows(16, 200_000)
	transporttest.MustComplete(t, env, Proto{}, flows)
}

func TestShedBytesRecoveredWithoutTimeout(t *testing.T) {
	// Two incast flows with selective dropping: holes in the
	// unscheduled span must be re-requested via grants. We verify
	// completion is much faster than the RTO (i.e. grant-based
	// recovery, not timeout-based).
	env := transporttest.NewStarEnv(5, transporttest.WithDroppable(6_000))
	env.RTOMin = 20 * sim.Millisecond // timeouts would be catastrophic
	flows := transporttest.IncastFlows(4, 120_000)
	sum := transporttest.MustComplete(t, env, Proto{}, flows)
	var dropsLow int64
	for _, p := range env.Net.SwitchPorts() {
		dropsLow += p.Stats.DropsLow
	}
	if dropsLow == 0 {
		t.Skip("no selective drops occurred; nothing to recover")
	}
	if sum.OverallAvg > 5*sim.Millisecond {
		t.Fatalf("avg FCT %v suggests timeout-based recovery", sum.OverallAvg)
	}
}
