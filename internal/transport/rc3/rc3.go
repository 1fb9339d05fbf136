// Package rc3 implements Recursively Cautious Congestion Control [30] as
// the paper characterizes it: the primary loop is unchanged (DCTCP here,
// as in the paper's evaluation), and a second low-priority loop starts
// transmitting the flow from its tail immediately at flow start, keeping
// a full BDP in flight every RTT across exponentially sized priority
// levels, with no ECN reaction and no attempt to protect the primary
// loop. The loop runs until it crosses the primary loop's frontier.
//
// This aggressive behaviour — contrasted with PPT's intermittent,
// exponentially decreasing, ECN-guarded loop — is what Figures 8–13 and
// 24 measure.
package rc3

import (
	"ppt/internal/netsim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
)

// levelBase is the packet count of the first low-priority level; each
// subsequent level is 10× larger, per RC3.
const levelBase = 40

// Proto is the RC3 protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "rc3" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, &receiver{env: env, f: f, r: transport.NewReassembly(f.Size)})
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	s := &sender{env: env, f: f, tailNext: f.Size}
	s.hcp = dctcp.NewSender(env, f, dctcp.Config{})
	f.Src.Bind(f.ID, false, s)
	s.hcp.Launch()
	s.launchLCP()
}

type sender struct {
	env *transport.Env
	f   *transport.Flow
	hcp *dctcp.Sender

	tailNext int64 // next tail byte frontier (descending)
	oppSent  int64 // payload bytes sent by the low loop
	inflight int64 // low-loop bytes in flight
}

// launchLCP blasts the first BDP of tail bytes at line rate; afterwards
// the loop is ACK-clocked at one-for-one, holding ~BDP in flight per RTT
// ("fills up the entire BDP for every RTT").
func (s *sender) launchLCP() {
	bdp := int64(s.env.BDP())
	for s.inflight < bdp {
		if !s.sendOpportunistic() {
			return
		}
	}
}

// lowPrio maps cumulative low-loop packets sent to the RC3 exponential
// priority levels: first levelBase packets at P4, 10× that at P5, 10×
// again at P6, remainder at P7.
func (s *sender) lowPrio() int8 {
	pktsSent := s.oppSent / netsim.MSS
	level := int64(levelBase)
	for p := int8(4); p < 7; p++ {
		if pktsSent < level {
			return p
		}
		level *= 10
	}
	return 7
}

func (s *sender) sendOpportunistic() bool {
	seq := s.tailNext - netsim.MSS
	if seq < s.hcp.SndNxt {
		seq = s.hcp.SndNxt
	}
	if seq >= s.tailNext {
		return false // crossed with the primary loop: RC3 stops here
	}
	n := int32(s.tailNext - seq)
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, n, s.lowPrio())
	pkt.ECT = true // marked, but RC3 ignores the echo
	pkt.LowLoop = true
	s.f.Src.Send(pkt)
	s.env.Eff.SentLowPayload += int64(n)
	s.oppSent += int64(n)
	s.inflight += int64(n)
	s.tailNext = seq
	return true
}

// Handle implements netsim.Endpoint.
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if pkt.LowLoop {
		if n, ok := transport.FoldLowAck(s.env, pkt, s.hcp.Skip); ok {
			s.inflight = max(s.inflight-n, 0)
			s.hcp.TrySend()
		}
		// One-for-one clocking, no ECE suppression: RC3 keeps the pipe
		// full regardless of congestion.
		s.sendOpportunistic()
		return
	}
	s.hcp.ProcessAck(pkt)
}

type receiver struct {
	env *transport.Env
	f   *transport.Flow
	r   *transport.Reassembly
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	added := rc.r.Add(pkt.Seq, pkt.PayloadLen)
	ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), 0)
	ack.Seq = rc.r.CumAck()
	ack.ECE = pkt.CE
	ack.EchoTS = pkt.SentAt
	if pkt.LowLoop {
		rc.env.Eff.UsefulLow += added
		ack.LowLoop = true
		ack.Prio = pkt.Prio
		meta := transport.GetAckMeta(rc.env)
		meta.LowSeqs = [2]int64{pkt.Seq, 0}
		meta.LowLens = [2]int32{pkt.PayloadLen, 0}
		meta.LowN = 1
		ack.Meta = meta
	}
	rc.f.Dst.Send(ack)
	if rc.r.Complete() {
		rc.env.Complete(rc.f)
	}
}
