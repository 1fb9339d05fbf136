// Package aeolus implements Aeolus [17], the paper's "building block for
// proactive transports", integrated with Homa as in the paper's
// evaluation. Like Homa, receivers drive scheduled transmission with
// grants; unlike Homa, the first-RTT unscheduled packets are sent at
// line rate in a *droppable* low-priority class that switches discard
// early under buildup (selective dropping), and dropped unscheduled
// bytes are recovered by scheduled grants carrying selective
// retransmission requests instead of timeouts.
//
// As in package homa, each host's grant scheduler lives in the Env of
// the shard that owns the host (transport.HostState), and a grant
// carries its credit in the packet: Seq is the offset the sender may
// send below, and Meta the granted priority as an int8, or a
// *resendGrant when the grant also asks for a retransmission.
package aeolus

import (
	"sort"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// Aeolus's constants. RTTbytes, the unscheduled allowance and grant
// window, is not one of them: each start half reads it from the Env as
// the fabric BDP.
const (
	// overcommit matches Homa's setting (2 in the paper).
	overcommit = 2
	// unschedPrio is the droppable class for pre-credit packets: P6,
	// below every scheduled priority.
	unschedPrio = 6
)

type dataInfo struct {
	Size int64
}

// resendGrant is the Meta of a grant that also asks the sender to
// retransmit the missing range [Seq, Seq+Len) (selective retransmission
// of lost unscheduled bytes). Each is allocated: a pooled one would
// move from the receiving shard's pool to the sending shard's.
type resendGrant struct {
	Prio int8
	Seq  int64
	Len  int64
}

// Proto is the Aeolus protocol factory. It is stateless: each host's
// receiver manager lives in the Env of the shard that owns the host.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "aeolus" }

// RecyclesFlows implements transport.FlowRecycler: Recycle stops the
// keepalive and retry timers — the only callbacks that could reach a
// recycled Flow.
func (Proto) RecyclesFlows() {}

// Keys for the per-flow objects and the per-host manager the two start
// halves draw from the Env.
var (
	senderPool = transport.NewPoolKey("aeolus.sender")
	rxFlowPool = transport.NewPoolKey("aeolus.rxflow")
	managerKey = transport.NewPoolKey("aeolus.rxmanager")
)

// StartReceiver implements transport.Protocol: register the flow with
// its host's receiver manager.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	mgr := transport.HostState(env, managerKey, f.Dst.ID(), func() *rxManager {
		return &rxManager{env: env, rttBytes: int64(env.BDP())}
	})
	rx := transport.PoolFor(env, rxFlowPool, newIdleRxFlow).Get()
	rx.init(mgr, f)
	rx.pooled = true
	mgr.insert(rx)
	f.Dst.Bind(f.ID, true, rx)
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := transport.PoolFor(env, senderPool, newIdleSender).Get()
	s.init(env, f, int64(env.BDP()))
	s.pooled = true
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

type sender struct {
	transport.PoolNode
	env      *transport.Env
	f        *transport.Flow
	rttBytes int64 // unscheduled allowance

	sentNext int64
	keep     sim.Timer
	gotRx    bool
	pooled   bool

	// dinfo is the one dataInfo value every data packet points at (the
	// receiver never dereferences it here; delivery is a sink, so a
	// stable per-sender value replaces a per-packet allocation).
	dinfo dataInfo
	// keepFn is keepFired bound once; re-arming with an inline closure
	// would allocate per RTO.
	keepFn func()
}

// newIdleSender builds an unbound sender shell for the pool.
func newIdleSender() *sender {
	s := &sender{}
	s.keepFn = s.keepFired
	return s
}

// init (re)targets the sender at a flow.
func (s *sender) init(env *transport.Env, f *transport.Flow, rttBytes int64) {
	s.env, s.f, s.rttBytes = env, f, rttBytes
	s.sentNext = 0
	s.keep = sim.Timer{}
	s.gotRx = false
	s.dinfo = dataInfo{Size: f.Size}
}

// Recycle implements transport.EndpointRecycler.
func (s *sender) Recycle(env *transport.Env) {
	s.keep.Stop()
	if !s.pooled {
		return
	}
	s.pooled = false
	s.f = nil
	transport.PoolFor(env, senderPool, newIdleSender).Put(s)
}

func (s *sender) launch() {
	unsched := min64(s.rttBytes, s.f.Size)
	first := true
	for s.sentNext < unsched {
		end := min64(s.sentNext+netsim.MSS, unsched)
		pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), s.sentNext, int32(end-s.sentNext), unschedPrio)
		pkt.Meta = &s.dinfo
		if first {
			// The probe packet is protected so the receiver always
			// learns the flow exists; the rest may be shed.
			pkt.Prio = 1
			first = false
		} else {
			pkt.Droppable = true
		}
		s.f.Src.Send(pkt)
		s.sentNext = end
	}
	s.armKeepalive()
}

func (s *sender) armKeepalive() {
	s.keep = s.env.Sched().After(s.env.RTO(), s.keepFn)
}

func (s *sender) keepFired() {
	if s.f.SenderDone() || s.gotRx {
		return
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), 0, int32(min64(netsim.MSS, s.f.Size)), 1)
	pkt.Meta = &s.dinfo
	pkt.Retrans = true
	s.f.Src.Send(pkt)
	s.armKeepalive()
}

// Handle implements netsim.Endpoint (grants).
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Grant {
		return
	}
	s.gotRx = true
	var prio int8
	switch m := pkt.Meta.(type) {
	case int8:
		prio = m
	case *resendGrant:
		// Selective retransmission of shed unscheduled bytes rides
		// first, at the scheduled priority.
		prio = m.Prio
		end := min64(m.Seq+m.Len, s.f.Size)
		for seq := m.Seq; seq < end; seq += netsim.MSS {
			n := int32(min64(seq+netsim.MSS, end) - seq)
			rp := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, n, prio)
			rp.Retrans = true
			rp.Meta = &s.dinfo
			s.f.Src.Send(rp)
		}
	}
	limit := min64(pkt.Seq, s.f.Size)
	for s.sentNext < limit {
		end := min64(s.sentNext+netsim.MSS, limit)
		pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), s.sentNext, int32(end-s.sentNext), prio)
		pkt.Meta = &s.dinfo
		s.f.Src.Send(pkt)
		s.sentNext = end
	}
}

type rxManager struct {
	env      *transport.Env
	rttBytes int64 // per-flow grant window

	// order holds the inbound flows sorted by (remaining bytes, flow ID);
	// see the identical structure in package homa. Arrivals only shrink a
	// flow's key, so reposition bubbles leftward.
	order []*rxFlow
}

// rxLess orders a before b under SRPT with flow-ID tie-break.
func rxLess(a, b *rxFlow) bool {
	ra := a.f.Size - a.r.Received()
	rb := b.f.Size - b.r.Received()
	if ra != rb {
		return ra < rb
	}
	return a.f.ID < b.f.ID
}

// insert places rx at its sorted position.
func (m *rxManager) insert(rx *rxFlow) {
	i := sort.Search(len(m.order), func(i int) bool { return rxLess(rx, m.order[i]) })
	m.order = append(m.order, nil)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = rx
	for j := i; j < len(m.order); j++ {
		m.order[j].pos = j
	}
}

// remove splices rx out of the order.
func (m *rxManager) remove(rx *rxFlow) {
	i := rx.pos
	copy(m.order[i:], m.order[i+1:])
	m.order[len(m.order)-1] = nil
	m.order = m.order[:len(m.order)-1]
	for j := i; j < len(m.order); j++ {
		m.order[j].pos = j
	}
}

// reposition bubbles rx leftward after an arrival shrank its key.
func (m *rxManager) reposition(rx *rxFlow) {
	for rx.pos > 0 && rxLess(rx, m.order[rx.pos-1]) {
		prev := m.order[rx.pos-1]
		m.order[rx.pos-1], m.order[rx.pos] = rx, prev
		prev.pos = rx.pos
		rx.pos--
	}
}

func (m *rxManager) pump() {
	rank := 0
	for _, rx := range m.order {
		if rank >= overcommit {
			break
		}
		if rx.granted >= rx.f.Size && rx.r.Complete() {
			// Completed flows leave the order before pump runs; this
			// mirrors the filter of the sort-based pump it replaced.
			continue
		}
		prio := int8(2 + rank)
		if prio > 5 {
			prio = 5
		}
		rx.grantSome(prio)
		rank++
	}
}

type rxFlow struct {
	transport.PoolNode
	mgr     *rxManager
	f       *transport.Flow
	r       *transport.Reassembly
	granted int64
	pos     int // index in mgr.order
	pooled  bool
	// reqd tracks hole bytes whose retransmission was already requested;
	// the retry timer clears it so persistent losses are re-requested on
	// an RTO cadence rather than per arrival (which would turn one shed
	// burst into a retransmission storm).
	reqd  transport.IntervalSet
	retry sim.Timer
	// retryFn is retryFired bound once (see sender.keepFn).
	retryFn func()
}

// newIdleRxFlow builds an unbound receiver shell for the pool.
func newIdleRxFlow() *rxFlow {
	rx := &rxFlow{r: transport.NewReassembly(0)}
	rx.retryFn = rx.retryFired
	return rx
}

// init (re)targets the receiver at a flow.
func (rx *rxFlow) init(mgr *rxManager, f *transport.Flow) {
	rx.mgr, rx.f = mgr, f
	rx.r.Reset(f.Size)
	rx.granted = min64(mgr.rttBytes, f.Size)
	rx.reqd.Reset()
	rx.retry = sim.Timer{}
}

// Recycle implements transport.EndpointRecycler.
func (rx *rxFlow) Recycle(env *transport.Env) {
	rx.retry.Stop()
	if !rx.pooled {
		return
	}
	rx.pooled = false
	rx.f = nil
	rx.mgr = nil
	transport.PoolFor(env, rxFlowPool, newIdleRxFlow).Put(rx)
}

// grantSome issues credits while this flow's outstanding window allows.
// Retransmissions of shed bytes are grant-clocked: at most one hole
// packet is requested per pump, so recovery proceeds at roughly the
// arrival rate instead of blasting line-rate resend bursts.
func (rx *rxFlow) grantSome(prio int8) {
	if seq, n := rx.nextHolePacket(); n > 0 {
		rx.reqd.Add(seq, seq+n)
		g := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
		g.Seq, g.Meta = rx.granted, &resendGrant{Prio: prio, Seq: seq, Len: n}
		rx.f.Dst.Send(g)
	}
	for rx.granted-rx.r.Received() < rx.mgr.rttBytes && rx.granted < rx.f.Size {
		upTo := min64(rx.granted+netsim.MSS, rx.f.Size)
		g := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
		g.Seq, g.Meta = upTo, prio
		rx.f.Dst.Send(g)
		rx.granted = upTo
	}
}

// nextHolePacket returns one MSS-bounded missing range below the
// received frontier that has not been requested yet, or n == 0. On this
// in-order fabric, a byte below the frontier that neither arrived nor
// was requested is a definite loss.
func (rx *rxFlow) nextHolePacket() (int64, int64) {
	frontier := rx.r.MaxCovered()
	pos := int64(0)
	for pos < frontier {
		if next := rx.r.ContiguousFrom(pos); next > pos {
			pos = next // received: skip
			continue
		}
		if next := rx.reqd.ContiguousFrom(pos); next > pos {
			pos = next // already requested: skip
			continue
		}
		end := pos + netsim.MSS
		if c := rx.r.NextCovered(pos, end); c < end {
			end = c
		}
		if c := rx.reqd.FirstCoveredIn(pos, end); c < end {
			end = c
		}
		if end > frontier {
			end = frontier
		}
		return pos, end - pos
	}
	return 0, 0
}

// Handle implements netsim.Endpoint.
func (rx *rxFlow) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	rx.r.Add(pkt.Seq, pkt.PayloadLen)
	mgr := rx.mgr // survives the Recycle inside Complete
	if rx.r.Complete() {
		rx.retry.Stop()
		mgr.remove(rx)
		mgr.env.Complete(rx.f)
		mgr.pump()
		return
	}
	mgr.reposition(rx)
	rx.armRetry()
	mgr.pump()
}

// armRetry is the last-resort timeout (e.g. the tail packet of a fully
// granted flow was lost).
func (rx *rxFlow) armRetry() {
	rx.retry.Stop()
	if rx.retryFn == nil {
		rx.retryFn = rx.retryFired
	}
	rx.retry = rx.mgr.env.Sched().After(rx.mgr.env.RTO(), rx.retryFn)
}

func (rx *rxFlow) retryFired() {
	if rx.f.Done() || rx.r.Complete() {
		return
	}
	// Forget past requests — whatever is still missing after an RTO
	// was lost again — and kick recovery with one packet.
	rx.reqd.Reset()
	miss := rx.r.FirstMissing()
	end := min64(miss+netsim.MSS, rx.f.Size)
	rx.reqd.Add(miss, end)
	g := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
	g.Seq, g.Meta = rx.granted, &resendGrant{Prio: 2, Seq: miss, Len: end - miss}
	rx.f.Dst.Send(g)
	rx.armRetry()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
