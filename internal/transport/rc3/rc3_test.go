package rc3

import (
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
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
	if env.Eff.SentLowPayload == 0 {
		t.Fatal("RC3 low loop never sent")
	}
}

func TestLowLoopStartsImmediately(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 5, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1],
		Size: 10_000_000, FirstCall: 10_000_000}
	p := Proto{}
	p.StartReceiver(env, f)
	p.StartSender(env, f)
	// Immediately after start, a full BDP of low-priority bytes must be
	// in flight (no waiting for spare-bandwidth signals).
	if env.Eff.SentLowPayload < int64(env.BDP())-netsim.MSS {
		t.Fatalf("low loop sent %d, want ~BDP %d at flow start",
			env.Eff.SentLowPayload, env.BDP())
	}
}

func TestExponentialPriorityLevels(t *testing.T) {
	cases := []struct {
		pktsSent int64
		want     int8
	}{
		{0, 4}, {39, 4}, {40, 5}, {399, 5}, {400, 6}, {3999, 6}, {4000, 7}, {1 << 20, 7},
	}
	for _, c := range cases {
		if got := level(c.pktsSent); got != c.want {
			t.Errorf("level after %d pkts = %d, want %d", c.pktsSent, got, c.want)
		}
	}
}

// TestLevelsTagTheLoop: the loop tags its packets with the host's
// levels, so a flow's first levelBase opportunistic packets go out at P4
// and the next at P5.
func TestLevelsTagTheLoop(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 5, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 1 << 30}
	var prios []int8
	f.Dst.Bind(f.ID, true, epFunc(func(p *netsim.Packet) {
		if p.LowLoop {
			prios = append(prios, p.Prio)
		}
	}))
	s := newSender(env, f)
	s.lcp.Open((levelBase+1)*netsim.MSS, false)
	env.Sched().Run()
	if len(prios) != levelBase+1 || prios[0] != 4 || prios[levelBase-1] != 4 || prios[levelBase] != 5 {
		t.Fatalf("opportunistic priorities %v, want %d at P4 then P5", prios, levelBase)
	}
}

type epFunc func(*netsim.Packet)

func (f epFunc) Handle(p *netsim.Packet) { f(p) }

func TestNoECESuppression(t *testing.T) {
	// RC3's defining flaw per the paper: it keeps clocking opportunistic
	// packets even when ACKs carry ECE.
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 5, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1],
		Size: 100_000_000, FirstCall: 100}
	s := newSender(env, f)
	f.Src.Bind(f.ID, false, s)
	s.lcp.Open(int64(env.BDP()), false)
	before := s.lcp.OppSent()
	ack := netsim.CtrlPacket(netsim.Ack, f.ID, f.Dst.ID(), f.Src.ID(), 4)
	ack.LowLoop = true
	ack.ECE = true
	ack.AddRange(f.Size-netsim.MSS, netsim.MSS)
	s.Handle(ack)
	if s.lcp.OppSent() <= before {
		t.Fatal("RC3 suppressed on ECE; it must not")
	}
}

func TestIncastCompletes(t *testing.T) {
	env := transporttest.NewStarEnv(9)
	transporttest.MustComplete(t, env, Proto{}, transporttest.IncastFlows(8, 300_000))
}

func TestRC3HurtsVictimMoreThanDCTCP(t *testing.T) {
	// The victim study behind Fig 15/24: a small DCTCP-like flow
	// sharing the bottleneck with an RC3 elephant sees more queueing
	// than with a plain DCTCP elephant, because RC3's low loop occupies
	// the buffer. We assert the victim is at least not *helped*.
	victimFCT := func(bg transport.Protocol) sim.Time {
		env := transporttest.NewStarEnv(4, transporttest.WithBuffer(200_000))
		flows := []transport.SimpleFlow{
			{ID: 1, Src: 0, Dst: 2, Size: 20_000_000},
			{ID: 2, Src: 1, Dst: 2, Size: 100_000, Arrive: 500 * sim.Microsecond},
		}
		transporttest.MustComplete(t, env, muxProto{bg: bg}, flows)
		for _, r := range env.Collector.Records() {
			if r.FlowID == 2 {
				return r.FCT()
			}
		}
		t.Fatal("victim missing")
		return 0
	}
	withRC3 := victimFCT(Proto{})
	withDCTCP := victimFCT(dctcp.Proto{})
	if float64(withRC3) < 0.9*float64(withDCTCP) {
		t.Fatalf("victim faster under RC3 (%v) than DCTCP (%v)?", withRC3, withDCTCP)
	}
}

type muxProto struct{ bg transport.Protocol }

func (m muxProto) Name() string { return "mux" }
func (m muxProto) pick(f *transport.Flow) transport.Protocol {
	if f.ID == 2 {
		return dctcp.Proto{}
	}
	return m.bg
}
func (m muxProto) StartReceiver(env *transport.Env, f *transport.Flow) {
	m.pick(f).StartReceiver(env, f)
}
func (m muxProto) StartSender(env *transport.Env, f *transport.Flow) { m.pick(f).StartSender(env, f) }

func TestLowClassCapLimitsRC3(t *testing.T) {
	// Fig 24 mechanism: capping the low-priority class sheds RC3's
	// opportunistic packets at the switch.
	net := topo.Star(4, topo.Config{
		HostRate:     10 * netsim.Gbps,
		LinkDelay:    5 * sim.Microsecond,
		ECNHighK:     30_000,
		SharedBuffer: 1 << 20,
		LowClassCap:  5_000, // fits ~3 low-priority packets
	})
	env := transport.NewEnv(net)
	env.RTOMin = 500 * sim.Microsecond
	// Two senders into one downlink: the low loops alone offer 2×BDP at
	// once, far beyond the 5KB low-class allowance.
	transporttest.MustComplete(t, env, Proto{}, []transport.SimpleFlow{
		{ID: 1, Src: 0, Dst: 1, Size: 5_000_000},
		{ID: 2, Src: 2, Dst: 1, Size: 5_000_000},
	})
	var dropsLow int64
	for _, p := range net.SwitchPorts() {
		dropsLow += p.Stats.DropsLow
	}
	if dropsLow == 0 {
		t.Fatal("no low-class drops despite tight low-class cap")
	}
}
