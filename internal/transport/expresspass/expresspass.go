// Package expresspass implements ExpressPass [11], a Table 1 proactive
// baseline: senders hold data until credits arrive ("passive, 1st RTT
// wasted"). A flow announces itself with a header-only request; the
// receiver's per-host credit pacer then emits one credit per MSS slot of
// its downlink, round-robining across active inbound flows; each credit
// releases exactly one data packet. Because data is credit-clocked at
// the receiver's line rate, data packets essentially never overflow the
// last hop — the scheme's selling point — at the cost of a wasted first
// RTT and credit overhead. Each host's credit pacer lives in the Env of
// the shard that owns the host (transport.HostState).
package expresspass

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// Proto is the ExpressPass protocol factory. It is stateless: each
// host's credit pacer lives in the Env of the shard that owns the host.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "expresspass" }

var pacerKey = transport.NewPoolKey("expresspass.creditpacer")

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	pacer := transport.HostState(env, pacerKey, f.Dst.ID(), func() *creditPacer {
		cp := &creditPacer{env: env, host: f.Dst}
		cp.tickFn = cp.tick
		return cp
	})
	rx := &receiver{env: env, f: f, r: transport.NewReassembly(f.Size), pacer: pacer}
	rx.retryFn = rx.retryFired
	f.Dst.Bind(f.ID, true, rx)
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := &sender{env: env, f: f}
	s.retryFn = s.retryFired
	f.Src.Bind(f.ID, false, s)
	// Announce the flow with a one-byte request packet; all real data
	// waits for credits (the wasted first RTT: the pacer only learns of
	// the flow when the announcement arrives).
	s.announce()
	s.armRetry()
}

// sender releases one packet per credit.
type sender struct {
	env      *transport.Env
	f        *transport.Flow
	sentNext int64
	// retry guards the announcement; retryFn is retryFired bound once.
	retry   sim.Timer
	retryFn func()
}

// announce carries the flow's first byte as a credit request.
func (s *sender) announce() {
	req := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), 0, 1, 0)
	s.f.Src.Send(req)
}

// Handle implements netsim.Endpoint.
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Grant {
		return
	}
	// A credit may carry a retransmission request for a lost packet.
	if pkt.NRanges > 0 {
		rp := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), pkt.RangeSeq[0], pkt.RangeLen[0], 1)
		rp.Retrans = true
		s.f.Src.Send(rp)
		return
	}
	if s.sentNext >= s.f.Size {
		return
	}
	end := s.sentNext + netsim.MSS
	if end > s.f.Size {
		end = s.f.Size
	}
	s.f.Src.Send(s.f.Src.Data(s.f.ID, s.f.Dst.ID(), s.sentNext, int32(end-s.sentNext), 1))
	s.sentNext = end
}

// armRetry guards against a lost announcement.
func (s *sender) armRetry() {
	s.retry = s.env.Sched().After(s.env.RTO(), s.retryFn)
}

func (s *sender) retryFired() {
	if s.f.SenderDone() {
		return
	}
	if s.sentNext == 0 {
		s.announce()
	}
	s.armRetry()
}

// Recycle implements transport.EndpointRecycler: the retry stops with
// the flow.
func (s *sender) Recycle(*transport.Env) { s.retry.Stop() }

// creditPacer emits credits at the full downlink packet rate (the real
// system shapes credits to ~95% to leave room for other traffic),
// round-robin across this host's active inbound flows.
type creditPacer struct {
	env    *transport.Env
	host   *netsim.Host
	queue  transport.FIFO[*receiver]
	pacing bool
	// tickFn is tick bound once; re-arming with a method value would
	// allocate a closure per credit.
	tickFn func()
}

func (cp *creditPacer) register(rx *receiver) {
	cp.queue.Push(rx)
	if !cp.pacing {
		cp.pacing = true
		cp.tick()
	}
}

// tick credits the head of the rotation and moves it to the tail. A
// receiver leaves the rotation by its own state — reassembly complete,
// or credited up to its size — never by reading its Flow, which Complete
// may have handed to a later transfer.
func (cp *creditPacer) tick() {
	for cp.queue.Len() > 0 {
		rx := cp.queue.Pop()
		if rx.r.Complete() || rx.credited >= rx.r.Size {
			continue
		}
		cp.queue.Push(rx)
		rx.credited += netsim.MSS
		credit := rx.f.Dst.Ctrl(netsim.Grant, rx.f.ID, rx.f.Src.ID(), 0)
		rx.f.Dst.Send(credit)
		slot := cp.host.Rate().TxTime(netsim.MSS + netsim.HeaderBytes)
		cp.env.Sched().After(slot, cp.tickFn)
		return
	}
	cp.pacing = false
}

// receiver reassembles and requests retransmissions for definite holes.
type receiver struct {
	env       *transport.Env
	f         *transport.Flow
	r         *transport.Reassembly
	pacer     *creditPacer
	credited  int64
	announced bool
	retry     sim.Timer
	// retryFn is retryFired bound once; an inline closure would allocate
	// on every re-arm (once per data arrival).
	retryFn func()
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	// The first arrival (normally the one-byte announcement) registers
	// the flow with the credit pacer.
	if !rc.announced {
		rc.announced = true
		rc.pacer.register(rc)
	}
	rc.r.Add(pkt.Seq, pkt.PayloadLen)
	if rc.r.Complete() {
		rc.retry.Stop()
		rc.env.Complete(rc.f)
		return
	}
	rc.armRetry()
}

// armRetry re-requests the first missing packet on an RTO cadence (lost
// credits or rare data losses on upstream hops).
func (rc *receiver) armRetry() {
	rc.retry.Stop()
	rc.retry = rc.env.Sched().After(rc.env.RTO(), rc.retryFn)
}

func (rc *receiver) retryFired() {
	if rc.f.Done() || rc.r.Complete() {
		return
	}
	miss := rc.r.FirstMissing()
	end := rc.r.NextCovered(miss, min(miss+netsim.MSS, rc.f.Size))
	credit := rc.f.Dst.Ctrl(netsim.Grant, rc.f.ID, rc.f.Src.ID(), 0)
	credit.AddRange(miss, int32(end-miss))
	rc.f.Dst.Send(credit)
	rc.armRetry()
}
