// Package ndp implements NDP [15]: senders transmit a full initial
// window at line rate; switches configured with TrimToHeader cut the
// payload of overflowing data packets and forward the headers at the
// highest priority; receivers NACK trimmed packets (the sender queues
// them for retransmission) and pace PULL packets at their downlink rate,
// each pull clocking out one packet at the sender.
//
// Run NDP on a fabric built with topo.Config.TrimToHeader = true; on a
// drop-tail fabric it degenerates to timeout recovery. Each host's pull
// pacer lives in the Env of the shard that owns the host
// (transport.HostState).
package ndp

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
)

// dataPrio is the priority data packets travel at; trimmed headers,
// NACKs and PULLs ride P0.
const dataPrio = 1

// nackInfo is a queued retransmission: the range a NACK named.
type nackInfo struct {
	Seq int64
	Len int32
}

// Proto is the NDP protocol factory. It is stateless: each host's pull
// pacer lives in the Env of the shard that owns the host.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "ndp" }

var pacerKey = transport.NewPoolKey("ndp.pullpacer")

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	pacer := transport.HostState(env, pacerKey, f.Dst.ID(), func() *pullPacer {
		pp := &pullPacer{env: env, host: f.Dst}
		pp.sendFn = pp.sendOne
		return pp
	})
	rx := &receiver{env: env, f: f, r: transport.NewReassembly(f.Size), pacer: pacer}
	rx.retryFn = rx.retryFired
	f.Dst.Bind(f.ID, true, rx)
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := &sender{env: env, f: f}
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

// sender is window-blind: first window at line rate, then purely
// pull-clocked.
type sender struct {
	env *transport.Env
	f   *transport.Flow

	sentNext int64
	rtxQueue transport.FIFO[nackInfo]
}

// launch sends the blind first window: one BDP at line rate.
func (s *sender) launch() {
	limit := int64(s.env.BDP())
	if limit > s.f.Size {
		limit = s.f.Size
	}
	for s.sentNext < limit {
		s.sendNext(limit)
	}
}

func (s *sender) sendNext(limit int64) {
	end := s.sentNext + netsim.MSS
	if end > limit {
		end = limit
	}
	if end <= s.sentNext {
		return
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), s.sentNext, int32(end-s.sentNext), dataPrio)
	s.f.Src.Send(pkt)
	s.sentNext = end
}

// Handle implements netsim.Endpoint: NACKs queue retransmissions, PULLs
// clock out one packet (retransmission first).
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() {
		return
	}
	switch pkt.Kind {
	case netsim.Ctrl: // NACK for a trimmed packet
		s.rtxQueue.Push(nackInfo{Seq: pkt.RangeSeq[0], Len: pkt.RangeLen[0]})
	case netsim.Pull:
		if s.rtxQueue.Len() > 0 {
			ni := s.rtxQueue.Pop()
			rp := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), ni.Seq, ni.Len, dataPrio)
			rp.Retrans = true
			s.f.Src.Send(rp)
			return
		}
		s.sendNext(s.f.Size)
	}
}

// pullPacer serializes PULL transmission per receiving host at its
// downlink packet rate, across all of the host's inbound NDP flows.
type pullPacer struct {
	env    *transport.Env
	host   *netsim.Host
	queue  transport.FIFO[*netsim.Packet]
	pacing bool
	// sendFn is sendOne bound once; re-arming with a method value would
	// allocate a closure per pull.
	sendFn func()
}

func (pp *pullPacer) enqueue(pull *netsim.Packet) {
	pp.queue.Push(pull)
	if !pp.pacing {
		pp.pacing = true
		pp.sendOne()
	}
}

func (pp *pullPacer) sendOne() {
	if pp.queue.Len() == 0 {
		pp.pacing = false
		return
	}
	pp.host.Send(pp.queue.Pop())
	gap := pp.host.Rate().TxTime(netsim.MSS + netsim.HeaderBytes)
	pp.env.Sched().After(gap, pp.sendFn)
}

// receiver reassembles, NACKs trimmed arrivals, and pulls.
type receiver struct {
	env   *transport.Env
	f     *transport.Flow
	r     *transport.Reassembly
	pacer *pullPacer
	retry sim.Timer
	// retryFn is retryFired bound once; an inline closure would allocate
	// on every re-arm (once per data arrival).
	retryFn func()
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	if pkt.Trimmed {
		// Header survived: tell the sender immediately, then pull.
		nack := rc.f.Dst.Ctrl(netsim.Ctrl, rc.f.ID, rc.f.Src.ID(), 0)
		nack.AddRange(pkt.Seq, pkt.PayloadLen)
		rc.f.Dst.Send(nack)
	} else {
		rc.r.Add(pkt.Seq, pkt.PayloadLen)
		if rc.r.Complete() {
			rc.retry.Stop()
			rc.env.Complete(rc.f)
			return
		}
	}
	rc.armRetry()
	// One pull per arrival while the flow is incomplete: arrivals for
	// data we already hold still clock out pulls, which covers pulls
	// consumed by retransmissions of trimmed packets. Spurious trailing
	// pulls are harmless (the sender no-ops when nothing remains).
	pull := rc.f.Dst.Ctrl(netsim.Pull, rc.f.ID, rc.f.Src.ID(), 0)
	rc.pacer.enqueue(pull)
}

// armRetry is the tail-loss backstop: if the flow stalls (e.g. the last
// data packet or a pull was lost on a drop-tail fabric), issue a fresh
// pull and NACK the first gap.
func (rc *receiver) armRetry() {
	rc.retry.Stop()
	if rc.retryFn == nil {
		rc.retryFn = rc.retryFired
	}
	rc.retry = rc.env.Sched().After(rc.env.RTO(), rc.retryFn)
}

func (rc *receiver) retryFired() {
	if rc.f.Done() || rc.r.Complete() {
		return
	}
	miss := rc.r.FirstMissing()
	end := rc.r.NextCovered(miss, rc.f.Size)
	n := int32(min(end-miss, netsim.MSS))
	nack := rc.f.Dst.Ctrl(netsim.Ctrl, rc.f.ID, rc.f.Src.ID(), 0)
	nack.AddRange(miss, n)
	rc.f.Dst.Send(nack)
	pull := rc.f.Dst.Ctrl(netsim.Pull, rc.f.ID, rc.f.Src.ID(), 0)
	rc.pacer.enqueue(pull)
	rc.armRetry()
}
