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

func TestNextHolePacket(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	mgr := &rxManager{env: env, rttBytes: 50_000}
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 100_000}
	rx := &rxFlow{mgr: mgr, f: f, r: transport.NewReassembly(f.Size), granted: 50_000, aeolus: true}
	// No data yet: no hole (nothing below the frontier).
	if _, n := rx.nextHolePacket(); n != 0 {
		t.Fatalf("hole on empty reassembly: %d", n)
	}
	// Bytes [10000, 20000) arrived, [0, 10000) shed: a definite hole,
	// requested one MSS at a time without repeats.
	rx.r.Add(10_000, 10_000)
	seq, n := rx.nextHolePacket()
	if seq != 0 || n != 1448 {
		t.Fatalf("hole = (%d, %d), want (0, 1448)", seq, n)
	}
	rx.reqd.Add(seq, seq+n)
	seq2, n2 := rx.nextHolePacket()
	if seq2 != 1448 || n2 != 1448 {
		t.Fatalf("second hole = (%d, %d), want (1448, 1448)", seq2, n2)
	}
	// Once the whole hole is requested, nothing remains.
	rx.reqd.Add(0, 10_000)
	if _, n := rx.nextHolePacket(); n != 0 {
		t.Fatalf("hole after full request: %d", n)
	}
}

// retransRecorder stands in for a flow's receiver and logs the
// retransmitted ranges that reach it.
type retransRecorder struct{ got [][2]int64 }

func (r *retransRecorder) Handle(pkt *netsim.Packet) {
	if pkt.Kind == netsim.Data && pkt.Retrans {
		r.got = append(r.got, [2]int64{pkt.Seq, pkt.Seq + int64(pkt.PayloadLen)})
	}
}

// TestResendRangeSurvivesReceiverReuse pins that a timeout request
// carries its range by value. In a windowed run the receiver's shard
// may complete a flow, recycle its rxFlow and re-init it for another
// flow while the request is still on its way to the sender's shard; the
// sender must still retransmit exactly the range that was asked for.
func TestResendRangeSurvivesReceiverReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		aeolus bool
		want   int64 // the request covers [0, want)
	}{
		{"homa", false, 20_000}, // the whole first gap
		{"aeolus", true, netsim.MSS},
	} {
		env := transporttest.NewStarEnv(4)
		const rttBytes = 50_000
		mgr := &rxManager{env: env, rttBytes: rttBytes}
		f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 100_000}
		s := newIdleSender()
		s.init(env, f, rttBytes, tc.aeolus)
		f.Src.Bind(f.ID, false, s)
		rec := &retransRecorder{}
		f.Dst.Bind(f.ID, true, rec)

		pool := transport.PoolFor(env, rxFlowPool, newIdleRxFlow)
		rx := pool.Get()
		rx.init(mgr, f, tc.aeolus)
		rx.pooled = true
		rx.r.Add(20_000, 10_000) // [0, 20000) missing
		rx.retryFired()          // the request is now queued at the receiver's NIC
		rx.Recycle(env)
		other := &transport.Flow{ID: 2, Src: env.Net.Hosts[2], Dst: env.Net.Hosts[0], Size: 5_000}
		reused := pool.Get()
		if reused != rx {
			t.Fatalf("%s: pool handed out a fresh rxFlow", tc.name)
		}
		reused.init(mgr, other, tc.aeolus)
		env.Sched().Run()

		var next int64
		for _, g := range rec.got {
			if g[0] != next {
				t.Fatalf("%s: retransmitted %v, want contiguous [0, %d)", tc.name, rec.got, tc.want)
			}
			next = g[1]
		}
		if next != tc.want {
			t.Fatalf("%s: retransmitted %v, want [0, %d)", tc.name, rec.got, tc.want)
		}
	}
}

// TestRequestAllocatesNothing: a Homa RESEND and an Aeolus hole request
// carry their range and priority in the packet, so a request allocates
// nothing. The receiver is unbound: the retransmissions land at a host
// that drops them.
func TestRequestAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		aeolus bool
	}{{"homa", false}, {"aeolus", true}} {
		env := transporttest.NewStarEnv(4)
		const rttBytes = 50_000
		mgr := &rxManager{env: env, rttBytes: rttBytes}
		f := &transport.Flow{ID: 1, Src: env.Net.Hosts[1], Dst: env.Net.Hosts[0], Size: 100_000}
		s := newIdleSender()
		s.init(env, f, rttBytes, tc.aeolus)
		f.Src.Bind(f.ID, false, s)
		rx := newIdleRxFlow()
		rx.init(mgr, f, tc.aeolus)
		allocs := testing.AllocsPerRun(100, func() {
			rx.request(2, 0, netsim.MSS)
			env.Sched().RunUntil(env.Now() + env.BaseRTT())
		})
		if allocs != 0 {
			t.Errorf("%s: a request allocates %v times", tc.name, allocs)
		}
		if sent := f.Src.NIC().Stats.TxDataBytes; sent < 100*netsim.MSS {
			t.Errorf("%s: the sender sent %d bytes for 101 requests of one MSS each", tc.name, sent)
		}
	}
}
