// Package homa implements the Homa transport [32] at the level of detail
// the PPT paper evaluates it, and Aeolus [17] on top of it, as the paper
// evaluates Aeolus: a building block run on Homa.
//
// Homa is receiver-driven: senders blindly transmit RTTbytes of
// "unscheduled" data at line rate when a message starts (the pre-credit
// phase the paper criticizes), and receivers drive the rest with
// per-packet grants, overcommitting the downlink to a fixed number of
// flows (overcommit) chosen SRPT-style by remaining bytes — which
// requires knowing flow sizes a priori. Loss recovery is timeout-based
// (as in the Aeolus simulator the paper uses to evaluate Homa), via
// receiver RESEND requests.
//
// Aeolus runs on the same sender, grant scheduler and receiver; the
// branches on their aeolus bit are its whole mechanism. The unscheduled
// packets behind a protected P1 probe ride a droppable class that
// switches shed early under buildup (selective dropping). Shed bytes are
// recovered by grants that also request one missing packet each, not by
// timeouts; the timeout only restarts that recovery, forgetting past
// requests and asking for one MSS at P2. A fully granted flow keeps its
// overcommit slot, so its hole requests keep flowing.
//
// Each host's grant scheduler (rxManager) lives in the Env of the shard
// that owns the host (transport.HostState). A grant carries its credit
// in the packet — Seq is the offset the sender may send below, GrantPrio
// the granted priority — and a retransmission request carries its range
// in the packet's first range slot, so a receiver and its sender may run
// in different shards of a windowed run without any packet pointing into
// a pooled object.
package homa

import (
	"sort"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// overcommit is the number of flows a receiver grants concurrently (the
// paper's setting, which Aeolus keeps). RTTbytes, the unscheduled
// allowance and per-flow grant window, is not a constant: each start
// half reads it from the Env as the fabric BDP.
const overcommit = 2

// droppablePrio is Aeolus's class for the unscheduled packets behind its
// probe: P6, below every scheduled priority, and the only packets marked
// droppable.
const droppablePrio = 6

// Proto is the Homa protocol factory. It is stateless: each host's
// receiver manager lives in the Env of the shard that owns the host.
type Proto struct{}

// Aeolus is the Aeolus protocol factory: Homa's engine with Aeolus's
// selective dropping and grant-carried recovery. Stateless like Proto.
type Aeolus struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "homa" }

// Name implements transport.Protocol.
func (Aeolus) Name() string { return "aeolus" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) { startReceiver(env, f, false) }

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) { startSender(env, f, false) }

// StartReceiver implements transport.Protocol.
func (Aeolus) StartReceiver(env *transport.Env, f *transport.Flow) { startReceiver(env, f, true) }

// StartSender implements transport.Protocol.
func (Aeolus) StartSender(env *transport.Env, f *transport.Flow) { startSender(env, f, true) }

// Keys for the per-flow objects and the per-host manager the two start
// halves draw from the Env.
var (
	senderPool = transport.NewPoolKey("homa.sender")
	rxFlowPool = transport.NewPoolKey("homa.rxflow")
	managerKey = transport.NewPoolKey("homa.rxmanager")
)

// startReceiver registers the flow with its host's receiver manager.
func startReceiver(env *transport.Env, f *transport.Flow, aeolus bool) {
	mgr := transport.HostState(env, managerKey, f.Dst.ID(), func() *rxManager {
		return &rxManager{env: env, rttBytes: int64(env.BDP())}
	})
	rx := transport.PoolFor(env, rxFlowPool, newIdleRxFlow).Get()
	rx.init(mgr, f, aeolus)
	rx.pooled = true
	mgr.insert(rx)
	f.Dst.Bind(f.ID, true, rx)
}

// startSender binds the flow's sender and sends its unscheduled burst.
func startSender(env *transport.Env, f *transport.Flow, aeolus bool) {
	s := transport.PoolFor(env, senderPool, newIdleSender).Get()
	s.init(env, f, int64(env.BDP()), aeolus)
	s.pooled = true
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

// unschedPrio picks Homa's unscheduled priority from the flow size:
// short messages ride P0, longer ones P1 (Homa's CDF-derived cutoffs,
// reduced to the two unscheduled levels used here).
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
	aeolus   bool  // Aeolus's mechanism (package doc)

	sentNext int64     // next new byte to transmit
	keep     sim.Timer // pre-grant keepalive
	gotRx    bool      // receiver has spoken (grant or resend arrived)
	pooled   bool      // drawn from the Env pool (StartSender)
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
func (s *sender) init(env *transport.Env, f *transport.Flow, rttBytes int64, aeolus bool) {
	s.env, s.f, s.rttBytes, s.aeolus = env, f, rttBytes, aeolus
	s.sentNext = 0
	s.keep = sim.Timer{}
	s.gotRx = false
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
	unsched := min(s.rttBytes, s.f.Size)
	prio := unschedPrio(s.f.Size, s.rttBytes)
	if s.aeolus {
		// The probe packet is protected so the receiver always learns
		// the flow exists; the rest may be shed.
		s.sendChunk(0, unsched, 1, false)
		prio = droppablePrio
	}
	// Line-rate blind transmission: dump the whole unscheduled span on
	// the NIC; it serializes at line rate (the pre-credit burst).
	for s.sentNext < unsched {
		s.sendChunk(s.sentNext, unsched, prio, false)
	}
	s.armKeepalive()
}

// sendChunk emits one MSS-bounded packet of [from, limit). New data
// advances sentNext, and so does a Homa retransmission that reaches past
// it; an Aeolus retransmission never does.
func (s *sender) sendChunk(from, limit int64, prio int8, retrans bool) {
	end := min(from+netsim.MSS, limit)
	if end <= from {
		return
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), from, int32(end-from), prio)
	pkt.Retrans = retrans
	pkt.Droppable = prio == droppablePrio
	s.f.Src.Send(pkt)
	if end > s.sentNext && !(retrans && s.aeolus) {
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
	prio := int8(0)
	if s.aeolus {
		prio = 1 // the probe's protected class
	}
	s.sendChunk(0, min(netsim.MSS, s.f.Size), prio, true)
	s.armKeepalive()
}

// Handle implements netsim.Endpoint (grants and retransmission
// requests).
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() {
		return
	}
	s.gotRx = true
	prio := pkt.GrantPrio
	if pkt.NRanges > 0 {
		// The requested range rides first, at the request's priority
		// (an Aeolus grant's is the granted one).
		seq := pkt.RangeSeq[0]
		end := min(seq+int64(pkt.RangeLen[0]), s.f.Size)
		for ; seq < end; seq += netsim.MSS {
			s.sendChunk(seq, end, prio, true)
		}
	}
	if pkt.Kind != netsim.Grant {
		return // a Homa RESEND carries no credit
	}
	limit := min(pkt.Seq, s.f.Size)
	for s.sentNext < limit {
		s.sendChunk(s.sentNext, limit, prio, false)
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

// pump tops up grants for the first overcommit flows in SRPT order
// after every arrival; an Aeolus grant first asks for one hole packet.
func (m *rxManager) pump() {
	rank := 0
	for _, rx := range m.order {
		if rank >= overcommit {
			break
		}
		if rx.granted >= rx.f.Size && !rx.aeolus {
			// Fully granted but not yet fully received: it holds no
			// downlink credit, so Homa does not spend an overcommit slot
			// on it. Aeolus does, for the hole requests it still sends.
			continue
		}
		prio := int8(2 + rank)
		if rx.aeolus {
			// Retransmissions of shed bytes are grant-clocked: at most one
			// hole packet is requested per pump, so recovery proceeds at
			// roughly the arrival rate instead of in line-rate bursts.
			if seq, n := rx.nextHolePacket(); n > 0 {
				rx.reqd.Add(seq, seq+n)
				rx.request(prio, seq, seq+n)
			}
		}
		// Keep RTTbytes outstanding: granted beyond what has arrived.
		for rx.granted-rx.r.Received() < m.rttBytes && rx.granted < rx.f.Size {
			upTo := min(rx.granted+netsim.MSS, rx.f.Size)
			g := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
			g.Seq, g.GrantPrio = upTo, prio
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
	pos     int  // index in mgr.order
	aeolus  bool // Aeolus's mechanism (package doc)
	pooled  bool
	// reqd tracks Aeolus's hole bytes whose retransmission was already
	// requested; the retry timer clears it so persistent losses are
	// re-requested on an RTO cadence rather than per arrival (which would
	// turn one shed burst into a retransmission storm).
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
func (rx *rxFlow) init(mgr *rxManager, f *transport.Flow, aeolus bool) {
	rx.mgr, rx.f, rx.aeolus = mgr, f, aeolus
	rx.r.Reset(f.Size)
	rx.granted = min(mgr.rttBytes, f.Size)
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

// request asks the sender to retransmit [seq, end) at prio: Homa in a
// Ctrl RESEND, Aeolus in a grant whose Seq restates the credit given.
func (rx *rxFlow) request(prio int8, seq, end int64) {
	kind := netsim.Ctrl
	if rx.aeolus {
		kind = netsim.Grant
	}
	p := rx.f.Dst.Ctrl(kind, rx.f.ID, rx.f.Src.ID(), 0)
	p.Seq, p.GrantPrio = rx.granted, prio
	p.AddRange(seq, int32(end-seq))
	rx.f.Dst.Send(p)
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

// armRetry schedules the timeout request for the first gap (for Aeolus
// the last resort, e.g. when the tail packet of a fully granted flow was
// lost).
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
	if rx.aeolus {
		// Forget past requests — whatever is still missing after an RTO
		// was lost again — and kick recovery with one packet.
		rx.reqd.Reset()
		end := min(miss+netsim.MSS, rx.f.Size)
		rx.reqd.Add(miss, end)
		rx.request(2, miss, end)
	} else {
		// Resend the whole first gap, up to RTTbytes, at P0.
		rx.request(0, miss, min(rx.r.NextCovered(miss, rx.f.Size), miss+rx.mgr.rttBytes))
	}
	rx.armRetry()
}
