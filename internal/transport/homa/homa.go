// Package homa implements the Homa transport [32] at the level of detail
// the PPT paper evaluates it: a receiver-driven protocol in which
// senders blindly transmit RTTbytes of "unscheduled" data at line rate
// when a message starts (the pre-credit phase the paper criticizes), and
// receivers drive the rest with per-packet grants, overcommitting the
// downlink to a fixed number of flows (overcommit) chosen SRPT-style by
// remaining bytes — which requires knowing flow sizes a priori.
// Loss recovery is timeout-based (as in the Aeolus simulator the paper
// uses to evaluate Homa), via receiver RESEND requests.
//
// Each host's grant scheduler (rxManager) lives in the Env of the shard
// that owns the host (transport.HostState). A grant carries its credit
// in the packet — Seq is the offset the sender may send below, Meta the
// granted priority as an int8, which boxes without allocating — so a
// receiver and its sender may run in different shards of a windowed run
// without handing pooled objects from one shard to the other.
package homa

import (
	"sort"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// overcommit is the number of flows a receiver grants concurrently (the
// paper's setting). RTTbytes, the unscheduled allowance and per-flow
// grant window, is not a constant: each start half reads it from the
// Env as the fabric BDP.
const overcommit = 2

// dataInfo rides on every data packet so the receiver learns the flow
// size (Homa's prior-knowledge assumption).
type dataInfo struct {
	Size      int64
	Scheduled bool
}

// resendInfo rides on Ctrl packets: retransmit [Seq, Seq+Len).
type resendInfo struct {
	Seq int64
	Len int64
}

// Proto is the Homa protocol factory. It is stateless: each host's
// receiver manager lives in the Env of the shard that owns the host.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "homa" }

// RecyclesFlows implements transport.FlowRecycler: Recycle stops the
// keepalive and retry timers — the only callbacks that could reach a
// recycled Flow.
func (Proto) RecyclesFlows() {}

// Keys for the per-flow objects and the per-host manager the two start
// halves draw from the Env.
var (
	senderPool = transport.NewPoolKey("homa.sender")
	rxFlowPool = transport.NewPoolKey("homa.rxflow")
	managerKey = transport.NewPoolKey("homa.rxmanager")
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

// unschedPrio picks the unscheduled priority from the flow size: short
// messages ride P0, longer ones P1 (Homa's CDF-derived cutoffs, reduced
// to the two unscheduled levels used here).
func unschedPrio(size, rttBytes int64) int8 {
	if size <= rttBytes {
		return 0
	}
	return 1
}

// sender transmits unscheduled bytes blindly, then obeys grants.
type sender struct {
	transport.PoolNode
	env      *transport.Env
	f        *transport.Flow
	rttBytes int64 // unscheduled allowance

	sentNext int64     // next new byte to transmit
	keep     sim.Timer // pre-grant keepalive
	gotRx    bool      // receiver has spoken (grant or resend arrived)
	pooled   bool      // drawn from the Env pool (StartSender)

	// schedInfo/unschedInfo are the only two dataInfo values this sender
	// ever attaches; packets point at one of them instead of allocating a
	// fresh copy per packet. Safe because delivery is a sink: endpoints
	// may not retain Meta past Handle.
	schedInfo   dataInfo
	unschedInfo dataInfo
	// keepFn is keepFired bound once: evaluating the method value inline
	// would allocate a fresh closure on every re-arm.
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
	s.schedInfo = dataInfo{Size: f.Size, Scheduled: true}
	s.unschedInfo = dataInfo{Size: f.Size}
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
	// Line-rate blind transmission: dump the whole unscheduled span on
	// the NIC; it serializes at line rate (the pre-credit burst).
	for s.sentNext < unsched {
		s.sendChunk(s.sentNext, unsched, unschedPrio(s.f.Size, s.rttBytes), false, false)
	}
	s.armKeepalive()
}

// sendChunk emits one MSS-bounded packet of [from, limit) and advances
// sentNext when it extends new territory.
func (s *sender) sendChunk(from, limit int64, prio int8, scheduled, retrans bool) {
	end := from + netsim.MSS
	if end > limit {
		end = limit
	}
	if end <= from {
		return
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), from, int32(end-from), prio)
	pkt.Retrans = retrans
	if scheduled {
		pkt.Meta = &s.schedInfo
	} else {
		pkt.Meta = &s.unschedInfo
	}
	s.f.Src.Send(pkt)
	if end > s.sentNext {
		s.sentNext = end
	}
}

// armKeepalive guards against the receiver never learning of the flow
// (all unscheduled packets lost): resend the first packet until any
// receiver signal arrives.
func (s *sender) armKeepalive() {
	s.keep = s.env.Sched().After(s.env.RTO(), s.keepFn)
}

func (s *sender) keepFired() {
	if s.f.SenderDone() || s.gotRx {
		return
	}
	s.sendChunk(0, min64(netsim.MSS, s.f.Size), 0, false, true)
	s.armKeepalive()
}

// Handle implements netsim.Endpoint (grants and resend requests).
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() {
		return
	}
	s.gotRx = true
	switch pkt.Kind {
	case netsim.Grant:
		prio := pkt.Meta.(int8)
		limit := min64(pkt.Seq, s.f.Size)
		for s.sentNext < limit {
			s.sendChunk(s.sentNext, limit, prio, true, false)
		}
	case netsim.Ctrl:
		ri := pkt.Meta.(*resendInfo)
		end := min64(ri.Seq+ri.Len, s.f.Size)
		for seq := ri.Seq; seq < end; seq += netsim.MSS {
			s.sendChunk(seq, end, 0, true, true)
		}
	}
}

// rxManager is the per-host receiver scheduler: it ranks incomplete
// inbound flows by remaining bytes (SRPT) and keeps grants flowing to
// the top overcommit of them.
type rxManager struct {
	env      *transport.Env
	rttBytes int64 // per-flow grant window

	// order holds the inbound flows sorted by (remaining bytes, flow ID)
	// — the SRPT ranking pump used to recompute with a full sort on every
	// arrival. An arrival can only shrink its flow's remaining bytes, so
	// reposition restores the invariant with a leftward bubble; insert
	// and remove shift the tail. Each rxFlow caches its index in pos.
	order []*rxFlow
}

// rxLess orders a before b under SRPT with flow-ID tie-break — exactly
// the comparator of the sort.Slice this ordering replaced.
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

// pump tops up grants for the first overcommit ungranted flows in SRPT
// order after every arrival.
func (m *rxManager) pump() {
	rank := 0
	for _, rx := range m.order {
		if rank >= overcommit {
			break
		}
		if rx.granted >= rx.f.Size {
			// Fully granted but not yet fully received: it holds no
			// downlink credit, so it does not consume an overcommit slot.
			continue
		}
		prio := int8(2 + rank)
		if prio > 7 {
			prio = 7
		}
		// Keep RTTbytes outstanding: granted beyond what has arrived.
		for rx.granted-rx.r.Received() < m.rttBytes && rx.granted < rx.f.Size {
			upTo := min64(rx.granted+netsim.MSS, rx.f.Size)
			g := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
			g.Seq, g.Meta = upTo, prio
			rx.f.Dst.Send(g)
			rx.granted = upTo
		}
		rank++
	}
}

// rxFlow is one inbound message.
type rxFlow struct {
	transport.PoolNode
	mgr     *rxManager
	f       *transport.Flow
	r       *transport.Reassembly
	granted int64
	pos     int // index in mgr.order
	pooled  bool
	retry   sim.Timer
	// retryFn is retryFired bound once (see sender.keepFn).
	retryFn func()
	// resend is the stable RESEND meta in-flight requests point at (the
	// schedInfo pattern: delivery is a sink, so one value per flow
	// suffices).
	resend resendInfo
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
	rx.retry = sim.Timer{}
	rx.resend = resendInfo{}
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

// Handle implements netsim.Endpoint (data arrivals).
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

// armRetry schedules a timeout-based RESEND for the first gap.
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
	miss := rx.r.FirstMissing()
	end := rx.r.NextCovered(miss, rx.f.Size)
	if end-miss > rx.mgr.rttBytes {
		end = miss + rx.mgr.rttBytes
	}
	req := rx.f.Dst.Ctrl(netsim.Ctrl, rx.f.ID, rx.f.Src.ID(), 0)
	rx.resend = resendInfo{Seq: miss, Len: end - miss}
	req.Meta = &rx.resend
	rx.f.Dst.Send(req)
	rx.armRetry()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
