package lowloop

import (
	"slices"
	"testing"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/transporttest"
)

// fakeHost is a minimal high loop for driving the low loop directly.
type fakeHost struct {
	frontier int64
	acked    int64
	window   float64
	rtt      sim.Time
	skip     transport.IntervalSet
	skipUps  int
}

func (h *fakeHost) Frontier() int64                 { return h.frontier }
func (h *fakeHost) Acked() int64                    { return h.acked }
func (h *fakeHost) Window() float64                 { return h.window }
func (h *fakeHost) RTT() sim.Time                   { return h.rtt }
func (h *fakeHost) LowPrio() int8                   { return 5 }
func (h *fakeHost) SkipSet() *transport.IntervalSet { return &h.skip }
func (h *fakeHost) OnSkipUpdate()                   { h.skipUps++ }

func setup(t *testing.T, size int64) (*Loop, *fakeHost, *transport.Env) {
	t.Helper()
	env := transporttest.NewStarEnv(3)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: size}
	h := &fakeHost{frontier: 14_480, window: 14_480, rtt: env.BaseRTT()}
	return New(env, f, h), h, env
}

func TestOpenSendsPacedWindow(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(10*netsim.MSS, false)
	if !l.Active() {
		t.Fatal("loop not active after open")
	}
	if env.Eff.Case1Opens != 1 || env.Eff.Case2Opens != 0 {
		t.Fatalf("opens counted case 1 %d, case 2 %d; want 1, 0", env.Eff.Case1Opens, env.Eff.Case2Opens)
	}
	env.Sched().RunUntil(2 * env.BaseRTT())
	if l.OppSent() < 9*netsim.MSS {
		t.Fatalf("paced out only %d bytes", l.OppSent())
	}
}

func TestOpenRejectsTinyWindow(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(netsim.MSS-1, false)
	l.Open(netsim.MSS-1, true)
	if l.Active() {
		t.Fatal("opened with sub-MSS window")
	}
	if env.Eff.Case1Opens != 0 || env.Eff.Case2Opens != 0 {
		t.Fatalf("refused opens counted: case 1 %d, case 2 %d", env.Eff.Case1Opens, env.Eff.Case2Opens)
	}
}

func TestOpenRejectsWhenCrossed(t *testing.T) {
	l, h, env := setup(t, 100_000)
	h.frontier = 100_000 // high loop already covers everything
	l.Open(10*netsim.MSS, false)
	if l.Active() {
		t.Fatal("opened past the crossing point")
	}
	if env.Eff.Case1Opens != 0 {
		t.Fatalf("a refused open counted: case 1 %d", env.Eff.Case1Opens)
	}
}

func TestGuardedOpenCapsToSpareGap(t *testing.T) {
	l, h, _ := setup(t, 100_000)
	h.frontier = 50_000
	h.window = 20_000
	// Gap beyond two windows: 100000-50000-40000 = 10000 < requested.
	l.Open(50_000, true)
	if !l.Active() {
		t.Fatal("guarded open refused a positive spare gap")
	}
	// And with no spare gap at all it must refuse.
	l2, h2, _ := setup(t, 100_000)
	h2.frontier = 70_000
	h2.window = 20_000
	l2.Open(50_000, true)
	if l2.Active() {
		t.Fatal("guarded open accepted with no spare gap")
	}
}

func TestLowAckClocksOnePacket(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(env.BaseRTT()) // paced out, loop still alive
	sent := l.OppSent()
	ack := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ack.LowLoop = true
	l.OnLowAck(ack)
	if l.OppSent() != sent+netsim.MSS {
		t.Fatalf("clean low ACK sent %d new bytes, want one MSS", l.OppSent()-sent)
	}
}

func TestECESuppresses(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(env.BaseRTT())
	sent := l.OppSent()
	ece := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ece.LowLoop = true
	ece.ECE = true
	l.OnLowAck(ece)
	if l.OppSent() != sent {
		t.Fatal("ECE low ACK clocked out a packet")
	}
}

func TestAckUpdatesSkipAndNotifiesHost(t *testing.T) {
	l, h, _ := setup(t, 10_000_000)
	ack := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ack.LowLoop = true
	ack.AddRange(9_000_000, netsim.MSS)
	ack.AddRange(9_500_000, netsim.MSS)
	l.OnLowAck(ack)
	if !h.skip.Contains(9_000_000, 9_000_000+netsim.MSS) {
		t.Fatal("skip set not updated")
	}
	if h.skipUps != 1 {
		t.Fatalf("host notified %d times", h.skipUps)
	}
}

func TestTerminatesAfterSilence(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(10 * env.BaseRTT())
	if l.Active() {
		t.Fatal("loop still active after 10 silent RTTs")
	}
}

func TestReopenGatedOnBacklog(t *testing.T) {
	// Terminate leaves the closed loop's unacknowledged bytes in the
	// backlog; low ACKs for them lift the veto.
	l, _, env := setup(t, 10_000_000)
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(10 * env.BaseRTT()) // terminate with the backlog unacked
	l.Open(4*netsim.MSS, false)
	if l.Active() {
		t.Fatal("reopened while the previous injection is unacknowledged")
	}
	if env.Eff.Case1Opens != 1 {
		t.Fatalf("case 1 opens = %d after one open and one refused, want 1", env.Eff.Case1Opens)
	}
	// ACK the backlog; now it may reopen.
	for i := 0; i < 2; i++ {
		ack := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
		ack.LowLoop = true
		ack.AddRange(10_000_000-int64(2*i+1)*netsim.MSS, netsim.MSS)
		ack.AddRange(10_000_000-int64(2*i+2)*netsim.MSS, netsim.MSS)
		l.OnLowAck(ack)
	}
	l.Open(4*netsim.MSS, false)
	if !l.Active() {
		t.Fatal("did not reopen after backlog cleared")
	}
}

func TestQuietFlushDrainsBacklog(t *testing.T) {
	// End to end through the receiving half: a one-packet loop never
	// completes a 2:1 pair, so only the quiet flush acknowledges it. That
	// ACK must put the range on the scoreboard and drain the backlog,
	// which would otherwise veto a two-packet loop.
	l, h, env := setup(t, 10_000_000)
	rc := &Receiver{}
	rc.Init(env, l.f)
	l.f.Dst.Bind(l.f.ID, true, epFunc(func(p *netsim.Packet) { rc.deliver(p) }))
	l.f.Src.Bind(l.f.ID, false, epFunc(l.OnLowAck))
	l.Open(netsim.MSS, false)
	env.Sched().Run()
	if !h.skip.Contains(l.f.Size-netsim.MSS, l.f.Size) {
		t.Fatal("lone arrival never low-ACKed")
	}
	l.Open(2*netsim.MSS, false)
	if !l.Active() {
		t.Fatal("two-packet loop refused: the flushed packet still counts as backlog")
	}
}

func TestBacklogClearsBelowCumAck(t *testing.T) {
	// Opportunistic bytes the host's cumulative ACK has passed stop
	// counting, so a lost or stranded packet cannot veto loops for good.
	// A finite send buffer makes this reachable: the next loop restarts
	// from the buffered tail, above the stale bytes.
	l, h, env := setup(t, 10_000_000)
	env.SendBuf = 128 << 10
	l.Init(env, l.f, h, Policy{})
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(10 * env.BaseRTT()) // never low-ACKed: terminated
	l.Open(4*netsim.MSS, false)
	if l.Active() {
		t.Fatal("reopened over an unacknowledged backlog")
	}
	h.acked, h.frontier = env.SendBuf, env.SendBuf // the high loop delivered them
	l.Open(4*netsim.MSS, false)
	if !l.Active() {
		t.Fatal("bytes below the cumulative ACK still veto the loop")
	}
}

func TestSendSkipsDeliveredTail(t *testing.T) {
	l, h, env := setup(t, 10_000_000)
	// The last two MSS were already delivered (and acked).
	h.skip.Add(10_000_000-2*netsim.MSS, 10_000_000)
	l.Open(2*netsim.MSS, false)
	env.Sched().RunUntil(2 * env.BaseRTT())
	if l.OppSent() == 0 {
		t.Fatal("nothing sent")
	}
	// The loop must have descended below the delivered suffix: its
	// frontier is under 10MB - 2 MSS.
	if l.tailNext >= 10_000_000-2*netsim.MSS {
		t.Fatalf("tailNext = %d did not skip the delivered suffix", l.tailNext)
	}
}

func TestSendBufBoundsReach(t *testing.T) {
	// With a finite send buffer a loop reaches only SendBuf past the
	// host's cumulative ACK (§4.1, Fig 27); once the buffer has slid, a
	// fresh loop restarts from the new buffered tail.
	l, h, env := setup(t, 10_000_000)
	env.SendBuf = 128 << 10
	l.Init(env, l.f, h, Policy{})
	l.Open(4*netsim.MSS, false)
	if l.OppSent() == 0 || l.TailNext() != env.SendBuf-netsim.MSS {
		t.Fatalf("first packet ends at %d, want the %d-byte buffered tail", l.TailNext()+netsim.MSS, env.SendBuf)
	}
	l.Terminate()
	h.acked, h.frontier = 1_000_000, 1_000_000
	l.Open(10*netsim.MSS, false)
	if want := h.acked + env.SendBuf - netsim.MSS; !l.Active() || l.TailNext() != want {
		t.Fatalf("reopened loop at %d (active=%v), want %d", l.TailNext(), l.Active(), want)
	}
}

// recordDst binds an endpoint at the flow's destination that keeps every
// packet it receives.
func recordDst(l *Loop) *[]netsim.Packet {
	var got []netsim.Packet
	l.f.Dst.Bind(l.f.ID, true, epFunc(func(p *netsim.Packet) { got = append(got, *p) }))
	return &got
}

type epFunc func(*netsim.Packet)

func (f epFunc) Handle(p *netsim.Packet) { f(p) }

func TestNoECNAblation(t *testing.T) {
	// Fig 15's variant: opportunistic packets go out non-ECT, and an ECE
	// low ACK still clocks out a packet.
	l, h, env := setup(t, 10_000_000)
	l.Init(env, l.f, h, Policy{NoECN: true})
	got := recordDst(l)
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(env.BaseRTT())
	if len(*got) == 0 {
		t.Fatal("no opportunistic packet arrived")
	}
	for _, p := range *got {
		if p.ECT {
			t.Fatal("no-ECN ablation sent an ECT packet")
		}
	}
	sent := l.OppSent()
	ece := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ece.LowLoop, ece.ECE = true, true
	l.OnLowAck(ece)
	if l.OppSent() != sent+netsim.MSS {
		t.Fatal("no-ECN ablation still silenced on ECE")
	}
}

func TestNoEWDAblation(t *testing.T) {
	// Fig 16's variant: a loop sends the whole remaining tail at line
	// rate instead of pacing its initial window over one RTT.
	l, h, env := setup(t, 10_000_000)
	l.Init(env, l.f, h, Policy{NoEWD: true})
	l.Open(4*netsim.MSS, false)
	env.Sched().RunUntil(env.BaseRTT())
	rtt := env.BaseRTT()
	lineRate := int64(rtt / l.f.Src.Rate().TxTime(netsim.MSS+netsim.HeaderBytes))
	if pkts := l.OppSent() / netsim.MSS; pkts < lineRate {
		t.Fatalf("sent %d packets in one RTT, want the %d a line-rate loop sends", pkts, lineRate)
	}
}

func TestStopTimersLeavesNoCallback(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(10*netsim.MSS, false)
	sent := l.OppSent()
	l.StopTimers()
	env.Sched().Run()
	// A pacing callback would have sent more; a dead timer would have
	// closed the loop.
	if l.OppSent() != sent || !l.Active() {
		t.Fatalf("after StopTimers: sent %d → %d, active=%v", sent, l.OppSent(), l.Active())
	}
}

// TestTerminateStopsPaceChain: a loop terminated while its pacing is
// pending and opened again at once runs one pace chain, not two.
func TestTerminateStopsPaceChain(t *testing.T) {
	l, _, env := setup(t, 10_000_000)
	l.Open(10*netsim.MSS, false)
	l.Terminate()
	l.Open(10*netsim.MSS, false)
	before := l.OppSent()
	env.Sched().RunUntil(env.BaseRTT() / 2)
	// One chain paces 10 packets over the RTT: five more by half of it.
	if got := (l.OppSent() - before) / netsim.MSS; got != 5 {
		t.Fatalf("sent %d packets in half an RTT after the re-open, want one chain's 5", got)
	}
}

// TestBurstSendsWindowAtOnce: under Burst the initial window leaves at
// open, back to back, and no pace timer is left behind.
func TestBurstSendsWindowAtOnce(t *testing.T) {
	l, h, env := setup(t, 10_000_000)
	l.Init(env, l.f, h, Policy{Burst: true})
	l.Open(10*netsim.MSS, false)
	if l.OppSent() != 10*netsim.MSS || l.paceTimer.Pending() {
		t.Fatalf("burst sent %d bytes at open (pace timer pending: %v), want the 10-packet window and no timer",
			l.OppSent(), l.paceTimer.Pending())
	}
}

// TestBlindClocksThroughECEAndNeverDies: under Blind an ECE low ACK
// still clocks out a packet and ACK silence never closes the loop.
func TestBlindClocksThroughECEAndNeverDies(t *testing.T) {
	l, h, env := setup(t, 10_000_000)
	l.Init(env, l.f, h, Policy{Blind: true})
	l.Open(4*netsim.MSS, false)
	env.Sched().Run()
	if !l.Active() {
		t.Fatal("blind loop closed after ACK silence")
	}
	sent := l.OppSent()
	ece := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ece.LowLoop, ece.ECE = true, true
	l.OnLowAck(ece)
	if l.OppSent() != sent+netsim.MSS || l.deadTimer.Pending() {
		t.Fatalf("ECE low ACK sent %d bytes (dead timer pending: %v), want one MSS and no timer",
			l.OppSent()-sent, l.deadTimer.Pending())
	}
}

// TestUnclockedOnlyFolds: an Unclocked loop opens over a backlog, sends
// nothing on a low ACK and arms no dead timer.
func TestUnclockedOnlyFolds(t *testing.T) {
	l, h, env := setup(t, 10_000_000)
	l.Init(env, l.f, h, Policy{Unclocked: true})
	l.Open(4*netsim.MSS, false)
	env.Sched().Run()
	l.Terminate()
	l.Open(4*netsim.MSS, false) // the first window is all backlog
	if !l.Active() || l.deadTimer.Pending() {
		t.Fatalf("re-open over a backlog: active=%v, dead timer pending=%v; want open and no timer",
			l.Active(), l.deadTimer.Pending())
	}
	sent := l.OppSent()
	ack := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ack.LowLoop = true
	ack.AddRange(10_000_000-netsim.MSS, netsim.MSS)
	l.OnLowAck(ack)
	if l.OppSent() != sent || h.skipUps != 1 {
		t.Fatalf("low ACK sent %d bytes and notified the host %d times, want 0 and 1", l.OppSent()-sent, h.skipUps)
	}
}

// TestAtFrontierReachesHostFrontier: with AtFrontier the tail walks down
// to the host's frontier; without it, it stops one host window above.
func TestAtFrontierReachesHostFrontier(t *testing.T) {
	for _, pol := range []Policy{{Burst: true}, {Burst: true, AtFrontier: true}} {
		l, h, env := setup(t, 100_000)
		l.Init(env, l.f, h, pol)
		l.Open(100_000, false)
		want := h.frontier
		if !pol.AtFrontier {
			want += int64(h.window)
		}
		if l.TailNext() != want {
			t.Errorf("%+v: tail stopped at %d, want %d", pol, l.TailNext(), want)
		}
	}
}

func TestECELowAckAllocatesNothing(t *testing.T) {
	// The per-ACK path re-arms the dead timer with a pre-bound callback
	// and reads the ranges from the packet, so a steady stream of ECE
	// low ACKs allocates nothing.
	l, _, _ := setup(t, 10_000_000)
	l.Open(4*netsim.MSS, false)
	ack := netsim.CtrlPacket(netsim.Ack, 1, 1, 0, 5)
	ack.LowLoop, ack.ECE = true, true
	ack.AddRange(9_000_000, netsim.MSS)
	ack.AddRange(9_001_448, netsim.MSS)
	allocs := testing.AllocsPerRun(100, func() {
		l.OnLowAck(ack)
	})
	if allocs != 0 {
		t.Fatalf("ECE low ACK allocates %v times", allocs)
	}
}

// TestPooledReceiverResetNoStaleState: a receiver recycled after a
// partial transfer and re-issued for a new flow must carry none of the
// old reassembly state (the pool hands structs back dirty; Init must
// scrub everything).
func TestPooledReceiverResetNoStaleState(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f1 := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	r1 := GetReceiver(env, f1)
	r1.R.Add(0, 50_000)
	r1.R.Add(80_000, 20_000)
	if r1.R.Received() != 70_000 {
		t.Fatalf("setup: received %d", r1.R.Received())
	}
	r1.Recycle(env)

	f2 := &transport.Flow{ID: 2, Src: env.Net.Hosts[2], Dst: env.Net.Hosts[3], Size: 40_000}
	r2 := GetReceiver(env, f2)
	if r2 != r1 {
		t.Fatal("pool did not recycle the receiver")
	}
	if r2.R.Received() != 0 || r2.R.CumAck() != 0 {
		t.Fatalf("stale reassembly: received=%d cumack=%d", r2.R.Received(), r2.R.CumAck())
	}
	if r2.R.Size != 40_000 || r2.R.Complete() {
		t.Fatalf("reassembly not retargeted: size=%d complete=%v", r2.R.Size, r2.R.Complete())
	}
	if r2.f != f2 {
		t.Fatal("receiver still points at the old flow")
	}
}

// TestRecycledReceiverDropsHeldArrival: a receiver recycled while it
// holds an unpaired opportunistic arrival stops the arrival's quiet
// flush and comes back holding nothing, so its next flow's low ACKs
// cover only that flow's own ranges.
func TestRecycledReceiverDropsHeldArrival(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	lowData := func(f *transport.Flow, seq int64) *netsim.Packet {
		p := netsim.DataPacket(f.ID, f.Src.ID(), f.Dst.ID(), seq, netsim.MSS, 4)
		p.LowLoop = true
		return p
	}
	f1 := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	r1 := GetReceiver(env, f1)
	r1.deliver(lowData(f1, 90_000))
	if !r1.hasPending || env.Sched().Pending() != 1 {
		t.Fatal("setup: lone opportunistic arrival not held with its flush armed")
	}
	r1.Recycle(env)
	if n := env.Sched().Pending(); n != 0 {
		t.Fatalf("%d events still armed after Recycle, want the quiet flush stopped", n)
	}

	f2 := &transport.Flow{ID: 2, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	r2 := GetReceiver(env, f2)
	if r2 != r1 {
		t.Fatal("pool did not recycle the receiver")
	}
	if r2.hasPending {
		t.Fatal("recycled receiver still holds the old flow's arrival")
	}
	var acked []int64
	f2.Src.Bind(f2.ID, false, epFunc(func(p *netsim.Packet) {
		acked = append(acked, p.RangeSeq[:p.NRanges]...)
	}))
	r2.deliver(lowData(f2, 10_000))
	r2.deliver(lowData(f2, 20_000))
	env.Sched().Run()
	if !slices.Equal(acked, []int64{10_000, 20_000}) {
		t.Fatalf("the new flow's low ACKs cover %v, want its own pair [10000 20000]", acked)
	}
}

// TestAckEachAnswersEveryArrival: on the 1:1 clock every opportunistic
// arrival gets its own low ACK at once, and nothing is held for a pair.
func TestAckEachAnswersEveryArrival(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	rc := GetReceiver(env, f)
	rc.AckEach = true
	var acked []int64
	f.Src.Bind(f.ID, false, epFunc(func(p *netsim.Packet) {
		acked = append(acked, p.RangeSeq[:p.NRanges]...)
	}))
	for _, seq := range []int64{90_000, 80_000, 70_000} {
		p := netsim.DataPacket(f.ID, f.Src.ID(), f.Dst.ID(), seq, netsim.MSS, 4)
		p.LowLoop = true
		rc.deliver(p)
		if rc.hasPending {
			t.Fatalf("arrival at %d held for a pair on the 1:1 clock", seq)
		}
	}
	env.Sched().Run()
	if !slices.Equal(acked, []int64{90_000, 80_000, 70_000}) {
		t.Fatalf("low ACKs cover %v, want one per arrival", acked)
	}
	rc.Recycle(env)
	if GetReceiver(env, f).AckEach {
		t.Fatal("a recycled receiver kept the 1:1 clock")
	}
}

// TestConstructorReceiverNotPooled: a receiver built with NewReceiver is
// caller-owned; Recycle stops its timer but must not feed it to the pool
// or scrub the flow pointer its creator may still read.
func TestConstructorReceiverNotPooled(t *testing.T) {
	env := transporttest.NewStarEnv(4)
	f := &transport.Flow{ID: 1, Src: env.Net.Hosts[0], Dst: env.Net.Hosts[1], Size: 100_000}
	r := NewReceiver(env, f)
	r.Recycle(env)
	if got := GetReceiver(env, f); got == r {
		t.Fatal("constructor-built receiver leaked into the pool")
	}
	if r.f == nil {
		t.Fatal("Recycle scrubbed a caller-owned receiver")
	}
}
