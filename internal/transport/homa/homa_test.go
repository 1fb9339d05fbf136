package homa

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
	if sum.OverallAvg < 1600*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestTinyFlowUnscheduledOnly(t *testing.T) {
	// A sub-RTTbytes flow completes in about one way + no grants.
	env := transporttest.NewStarEnv(4)
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 5_000},
	})
	if sum.OverallAvg > env.BaseRTT() {
		t.Fatalf("tiny flow FCT %v exceeds an RTT %v", sum.OverallAvg, env.BaseRTT())
	}
}

func TestUnschedPrioBySize(t *testing.T) {
	if got := unschedPrio(1_000, 50_000); got != 0 {
		t.Fatalf("small flow unsched prio = %d", got)
	}
	if got := unschedPrio(1_000_000, 50_000); got != 1 {
		t.Fatalf("large flow unsched prio = %d", got)
	}
}

func TestSRPTFavorsShortFlow(t *testing.T) {
	// One long and one short flow into the same receiver: SRPT grants
	// must let the short one finish far sooner than proportional
	// sharing would.
	env := transporttest.NewStarEnv(4)
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 1, Dst: 0, Size: 8_000_000},
		{ID: 2, Src: 2, Dst: 0, Size: 400_000, Arrive: 100 * sim.Microsecond},
	}
	transporttest.MustComplete(t, env, Proto{}, flows)
	var short, long sim.Time
	for _, r := range env.Collector.Records() {
		if r.FlowID == 2 {
			short = r.FCT()
		} else {
			long = r.FCT()
		}
	}
	// 400KB at 10G is 320us alone; under fair sharing with the elephant
	// it would be ~640us+. SRPT should keep it near solo time.
	if short > 3*long/8 && short > 700*sim.Microsecond {
		t.Fatalf("short flow FCT %v (long %v): SRPT not effective", short, long)
	}
}

func TestOvercommitGrantsTwoFlows(t *testing.T) {
	env := transporttest.NewStarEnv(6)
	proto := Proto{}
	flows := transporttest.IncastFlows(4, 2_000_000)
	transporttest.MustComplete(t, env, proto, flows)
	// With overcommitment 2, the receiver should have granted two flows
	// concurrently; total run time must be ~ sum of serializations (the
	// downlink is the bottleneck), not 4x solo (which would indicate
	// serialization of grant scheduling mistakes).
	sum := env.Collector.Summarize()
	solo := sim.Time(float64(2_000_000*8) / 10e9 * float64(sim.Second))
	if sum.OverallAvg > 5*solo {
		t.Fatalf("avg FCT %v too slow vs solo %v", sum.OverallAvg, solo)
	}
}

func TestLossRecoveryViaResend(t *testing.T) {
	// Tiny shared buffer: the incast burst of unscheduled packets
	// overflows and must be recovered by timeout RESENDs.
	env := transporttest.NewStarEnv(9, transporttest.WithBuffer(30_000))
	env.RTOMin = 300 * sim.Microsecond
	flows := transporttest.IncastFlows(8, 150_000)
	transporttest.MustComplete(t, env, Proto{}, flows)
	var drops int64
	for _, p := range env.Net.SwitchPorts() {
		drops += p.Stats.Drops
	}
	if drops == 0 {
		t.Fatal("expected drops under incast with 30KB buffer")
	}
}

func TestKeepaliveRecoversLostProbe(t *testing.T) {
	// Force the entire unscheduled burst (one packet) to drop by
	// filling the buffer with a concurrent incast, then verify the
	// keepalive eventually delivers.
	env := transporttest.NewStarEnv(9, transporttest.WithBuffer(20_000))
	env.RTOMin = 300 * sim.Microsecond
	flows := transporttest.IncastFlows(8, 100_000)
	flows = append(flows, transport.SimpleFlow{ID: 99, Src: 8, Dst: 0, Size: 1_000, Arrive: 5 * sim.Microsecond})
	transporttest.MustComplete(t, env, Proto{}, flows)
}

func TestGrantWindowBounded(t *testing.T) {
	// The receiver must never grant more than RTTbytes beyond received.
	env := transporttest.NewStarEnv(4)
	const rttBytes = 20_000
	mgr := &rxManager{env: env, rttBytes: rttBytes}
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 1_000_000}
	rx := &rxFlow{mgr: mgr, f: f, r: transport.NewReassembly(f.Size), granted: rttBytes}
	mgr.insert(rx)
	mgr.pump()
	if rx.granted-rx.r.Received() > rttBytes {
		t.Fatalf("outstanding grants %d exceed RTTbytes %d",
			rx.granted-rx.r.Received(), rttBytes)
	}
	// Simulate arrivals; grants must advance but stay bounded.
	rx.r.Add(0, netsim.MSS)
	mgr.pump()
	if rx.granted-rx.r.Received() > rttBytes {
		t.Fatalf("outstanding grants %d exceed RTTbytes after arrival",
			rx.granted-rx.r.Received())
	}
}
