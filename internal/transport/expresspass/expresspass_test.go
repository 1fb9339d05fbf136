package expresspass

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
		{ID: 1, Src: 0, Dst: 1, Size: 1_000_000},
	})
	// Credit-clocked at 10G plus the wasted first RTT.
	if sum.OverallAvg < 800*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestFirstRTTWasted(t *testing.T) {
	// The Table 1 signature: even a one-packet flow needs a full RTT of
	// credit setup before data moves, so FCT >= ~1.5 RTT.
	env := transporttest.NewStarEnv(4)
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 1_000},
	})
	if sum.OverallAvg < env.BaseRTT() {
		t.Fatalf("tiny flow FCT %v under one RTT: first RTT not spent on credits", sum.OverallAvg)
	}
}

func TestCreditClockingPreventsOverflow(t *testing.T) {
	// Heavy incast: data is credit-clocked to the downlink rate, so the
	// bottleneck queue never overflows.
	env := transporttest.NewStarEnv(9, transporttest.WithBuffer(60_000))
	flows := transporttest.IncastFlows(8, 400_000)
	transporttest.MustComplete(t, env, Proto{}, flows)
	var dataDrops int64
	for _, p := range env.Net.SwitchPorts() {
		dataDrops += p.Stats.Drops
	}
	if dataDrops != 0 {
		t.Fatalf("credit-clocked data dropped %d packets", dataDrops)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 1, Dst: 0, Size: 2_000_000},
		{ID: 2, Src: 2, Dst: 0, Size: 2_000_000},
	}
	transporttest.MustComplete(t, env, Proto{}, flows)
	recs := env.Collector.Records()
	a, b := recs[0].FCT(), recs[1].FCT()
	if a > b*3/2 || b > a*3/2 {
		t.Fatalf("unfair credits: %v vs %v", a, b)
	}
}

// TestPacerTickAllocatesNothing: a steady credit pacer re-arms with its
// bound tick and rotates its receivers in one backing array, so a tick
// allocates nothing. No sender is bound: each credit is dropped at the
// source host once it lands.
func TestPacerTickAllocatesNothing(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	for id := uint32(1); id <= 3; id++ {
		f := &transport.Flow{ID: id, Src: env.Net.Hosts[id], Dst: env.Net.Hosts[0], Size: 1 << 40}
		Proto{}.StartReceiver(env, f)
		f.Dst.Unbind(f.ID, true).(*receiver).Handle(netsim.DataPacket(f.ID, f.Src.ID(), f.Dst.ID(), 0, 1, 0))
	}
	slot := env.Net.Hosts[0].Rate().TxTime(netsim.MSS + netsim.HeaderBytes)
	env.Sched().RunUntil(env.BaseRTT())
	if allocs := testing.AllocsPerRun(100, func() { env.Sched().RunUntil(env.Now() + slot) }); allocs != 0 {
		t.Fatalf("a pacer tick allocates %v times", allocs)
	}
}

// TestResendCreditAllocatesNothing: a retry credit names its missing
// range in the packet, so requesting a retransmission allocates nothing.
// The receiver is unbound: the retransmissions land at a host that drops
// them.
func TestResendCreditAllocatesNothing(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 100_000}
	Proto{}.StartReceiver(env, f)
	rc := f.Dst.Unbind(f.ID, true).(*receiver)
	s := &sender{env: env, f: f}
	f.Src.Bind(f.ID, false, s)
	var resent int64
	allocs := testing.AllocsPerRun(100, func() {
		rc.retryFired()
		env.Sched().RunUntil(env.Now() + env.BaseRTT())
		resent = f.Src.NIC().Stats.TxDataBytes
	})
	if allocs != 0 {
		t.Fatalf("a resend credit allocates %v times", allocs)
	}
	if resent == 0 {
		t.Fatal("no retransmission left the sender")
	}
}
