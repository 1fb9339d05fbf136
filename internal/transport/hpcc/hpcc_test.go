package hpcc

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
	"ppt/internal/transport/transporttest"
)

func TestSingleFlowCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 2_000_000},
	})
	if sum.OverallAvg < 1600*sim.Microsecond {
		t.Fatalf("impossibly fast: %v", sum.OverallAvg)
	}
}

func TestStartsAtFullBDP(t *testing.T) {
	// HPCC starts at line rate (window = BDP), so a BDP-sized flow
	// completes in ~1 RTT — no slow start.
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	size := int64(env.BDP())
	sum := transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: size},
	})
	if sum.OverallAvg > 2*env.BaseRTT() {
		t.Fatalf("BDP flow took %v, want ~1 RTT (%v)", sum.OverallAvg, env.BaseRTT())
	}
}

func TestConvergesWithoutDrops(t *testing.T) {
	// Two elephants sharing a bottleneck: INT feedback must keep the
	// queue controlled well below overflow.
	env := transporttest.NewStarEnv(4, transporttest.WithINT(), transporttest.WithBuffer(500_000))
	flows := []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 2, Size: 5_000_000},
		{ID: 2, Src: 1, Dst: 2, Size: 5_000_000},
	}
	transporttest.MustComplete(t, env, Proto{}, flows)
	var drops int64
	for _, p := range env.Net.SwitchPorts() {
		drops += p.Stats.Drops
	}
	if drops != 0 {
		t.Fatalf("HPCC dropped %d packets", drops)
	}
}

func TestReactShrinksWindowAtHighUtilization(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	bdp := float64(env.BDP())
	s := &sender{}
	s.init(env, f, s)
	baseT := env.BaseRTT()
	// First sample establishes the baseline.
	s.react([]netsim.INTHop{{QLen: 0, TxBytes: 0, TS: 0, Rate: 10 * netsim.Gbps}})
	// Second sample: link fully utilized with a standing queue.
	bytesPerRTT := int64(float64(10*netsim.Gbps) / 8 * baseT.Seconds())
	s.react([]netsim.INTHop{{QLen: 100_000, TxBytes: bytesPerRTT, TS: baseT, Rate: 10 * netsim.Gbps}})
	if s.Cwnd >= bdp {
		t.Fatalf("window %v did not shrink under U>η", s.Cwnd)
	}
}

func TestReactGrowsWindowWhenIdle(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	half := float64(env.BDP()) / 2
	s := &sender{}
	s.init(env, f, s)
	s.Cwnd, s.wc = half, half
	baseT := env.BaseRTT()
	s.react([]netsim.INTHop{{QLen: 0, TxBytes: 0, TS: 0, Rate: 10 * netsim.Gbps}})
	// 30% utilization, empty queue.
	tx := int64(float64(10*netsim.Gbps) / 8 * baseT.Seconds() * 0.3)
	s.react([]netsim.INTHop{{QLen: 0, TxBytes: tx, TS: baseT, Rate: 10 * netsim.Gbps}})
	if s.Cwnd <= half {
		t.Fatalf("window %v did not grow at U=0.3", s.Cwnd)
	}
}

func TestPPTVariantAcksLoneOpportunisticArrival(t *testing.T) {
	// A loop that sends one (odd) opportunistic packet never completes
	// the receiver's 2:1 pair. The quiet flush must still low-ACK it, so
	// the range lands in the sender's skip set instead of staying in the
	// loop's backlog for good.
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	s := newPPTSender(env, f)
	f.Src.Bind(f.ID, false, s)
	f.Dst.Bind(f.ID, true, lowloop.NewReceiver(env, f))
	s.Low.Open(netsim.MSS, false)
	if s.Low.OppSent() != netsim.MSS {
		t.Fatalf("one-packet loop sent %d bytes", s.Low.OppSent())
	}
	env.Sched().Run()
	if seq := f.Size - netsim.MSS; !s.Skip.Contains(seq, f.Size) {
		t.Fatalf("skip set missing [%d,%d): the lone arrival was never low-ACKed", seq, f.Size)
	}
}

// TestPPTVariantWindowFollowsTelemetry: hpcc+ppt runs HPCC's law on every
// ACK it handles, so two ACKs echoing a saturated hop shrink its window
// below the BDP, as TestReactShrinksWindowAtHighUtilization checks for
// plain HPCC.
func TestPPTVariantWindowFollowsTelemetry(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	PPTVariant{}.StartSender(env, f)
	s := f.Src.Unbind(f.ID, false).(*pptSender)
	bdp := float64(env.BDP())
	baseT := env.BaseRTT()
	bytesPerRTT := int64(float64(10*netsim.Gbps) / 8 * baseT.Seconds())
	for _, hop := range []netsim.INTHop{
		{QLen: 0, TxBytes: 0, TS: 0, Rate: 10 * netsim.Gbps},
		{QLen: 100_000, TxBytes: bytesPerRTT, TS: baseT, Rate: 10 * netsim.Gbps},
	} {
		ack := netsim.CtrlPacket(netsim.Ack, f.ID, f.Dst.ID(), f.Src.ID(), 0)
		ack.INT = []netsim.INTHop{hop}
		s.Handle(ack)
	}
	if s.Cwnd >= bdp {
		t.Fatalf("window %v did not shrink below the BDP %v under U>η", s.Cwnd, bdp)
	}
}

// TestEchoAllocatesNothing: the receiver hands each data packet's
// telemetry to its ACK's own INT field, and the sender returns the array
// to the pool once its law has read it, so a steady HPCC flow allocates
// nothing per ACK.
func TestEchoAllocatesNothing(t *testing.T) {
	env := transporttest.NewStarEnv(4, transporttest.WithINT())
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 40}
	Proto{}.StartReceiver(env, f)
	Proto{}.StartSender(env, f)
	s := f.Src.Unbind(f.ID, false).(*sender)
	f.Src.Bind(f.ID, false, s)
	env.Sched().RunUntil(10 * env.BaseRTT())
	acked := s.SndUna
	allocs := testing.AllocsPerRun(100, func() { env.Sched().RunUntil(env.Now() + env.BaseRTT()) })
	if allocs != 0 {
		t.Fatalf("an RTT of echoed ACKs allocates %v times", allocs)
	}
	if s.SndUna <= acked || s.prevINT == nil {
		t.Fatal("the flow made no progress on echoed telemetry")
	}
}
