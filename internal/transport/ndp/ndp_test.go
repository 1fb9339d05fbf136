package ndp

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithTrim())
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
	if sum.OverallAvg < 1600*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestTinyFlowFirstWindow(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithTrim())
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 5_000},
	})
	if sum.OverallAvg > env.BaseRTT() {
		t.Fatalf("tiny flow FCT %v", sum.OverallAvg)
	}
}

func TestTrimmingUnderIncast(t *testing.T) {
	// A hard incast on a trimming fabric with a small buffer: payloads
	// get cut, headers survive, NACK+pull recovers everything without
	// timeouts dominating.
	env := transporttest.NewStarEnv(9, transporttest.WithTrim(), transporttest.WithBuffer(40_000))
	env.RTOMin = 20 * sim.Millisecond // recovery must not rely on RTO
	flows := transporttest.IncastFlows(8, 300_000)
	sum := transporttest.MustComplete(t, env, Proto{}, flows)
	var trims int64
	for _, p := range env.Net.SwitchPorts() {
		trims += p.Stats.Trims
	}
	if trims == 0 {
		t.Fatal("no trims under incast on a trimming fabric")
	}
	// 8x300KB over one 10G downlink = ~1.92ms of serialization.
	if sum.OverallAvg > 6*sim.Millisecond {
		t.Fatalf("avg FCT %v indicates timeout-dominated recovery", sum.OverallAvg)
	}
}

func TestPullPacingSharesDownlink(t *testing.T) {
	// Two flows to one receiver: the shared pull pacer must interleave
	// pulls so both finish in bottleneck time, roughly fairly.
	env := transporttest.NewStarEnv(4, transporttest.WithTrim())
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 1, Dst: 0, Size: 2_000_000},
		{ID: 2, Src: 2, Dst: 0, Size: 2_000_000},
	}
	transporttest.MustComplete(t, env, Proto{}, flows)
	recs := env.Collector.Records()
	a, b := recs[0].FCT(), recs[1].FCT()
	if a > 2*b || b > 2*a {
		t.Fatalf("unfair pulls: %v vs %v", a, b)
	}
}

func TestCompletesOnDropTailFabric(t *testing.T) {
	// Without trimming, NDP still completes via its retry backstop.
	env := transporttest.NewStarEnv(5, transporttest.WithBuffer(30_000))
	env.RTOMin = 300 * sim.Microsecond
	flows := transporttest.IncastFlows(4, 150_000)
	transporttest.MustComplete(t, env, Proto{}, flows)
}

// TestNackAllocatesNothing: a NACK names the trimmed packet's range in
// the packet, and the sender queues it in one backing array, so a NACK
// and the pull that clocks out its retransmission allocate nothing. The
// receiver is unbound: the retransmissions land at a host that drops
// them.
func TestNackAllocatesNothing(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithTrim())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 1 << 40}
	Proto{}.StartReceiver(env, f)
	rc := f.Dst.Unbind(f.ID, true).(*receiver)
	s := &sender{env: env, f: f}
	f.Src.Bind(f.ID, false, s)
	trimmed := netsim.DataPacket(f.ID, f.Src.ID(), f.Dst.ID(), 0, netsim.MSS, dataPrio)
	trimmed.Trimmed = true
	allocs := testing.AllocsPerRun(100, func() {
		rc.Handle(trimmed)
		env.Sched().RunUntil(env.Now() + env.BaseRTT())
	})
	if allocs != 0 {
		t.Fatalf("a NACK allocates %v times", allocs)
	}
	if s.rtxQueue.Len() != 0 {
		t.Fatalf("%d NACKed packets never retransmitted", s.rtxQueue.Len())
	}
}
