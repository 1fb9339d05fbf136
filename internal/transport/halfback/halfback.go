// Package halfback implements Halfback [23], a Table 1 baseline: short
// flows (below a size threshold, 141KB in the paper) are paced out
// entirely in the first RTT — no slow start — and the *back half* of the
// flow is proactively retransmitted right behind it, trading bandwidth
// for loss-recovery latency ("run short flows quickly and safely").
// Larger flows fall back to plain DCTCP. Like the paper's
// characterization, it helps only the startup phase and ignores spare
// bandwidth in the queue-buildup phase.
package halfback

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
)

// threshold is the short-flow cutoff: 141KB, the paper's figure for
// Halfback's first-RTT pacing.
const threshold = 141_000

// Proto is the Halfback protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "halfback" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	if f.Size > threshold {
		dctcp.Proto{}.StartReceiver(env, f)
		return
	}
	f.Dst.Bind(f.ID, true, &receiver{env: env, f: f, r: transport.NewReassembly(f.Size)})
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	if f.Size > threshold {
		dctcp.Proto{}.StartSender(env, f)
		return
	}
	s := &sender{env: env, f: f}
	s.retryFn = s.retryFired
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

// sender blasts the whole short flow, then replays the back half.
type sender struct {
	env *transport.Env
	f   *transport.Flow
	// retry is the loss backstop; retryFn is retryFired bound once.
	retry   sim.Timer
	retryFn func()
}

func (s *sender) launch() {
	// Whole flow at line rate (the NIC serializes it within ~1 RTT for
	// sub-BDP flows).
	for seq := int64(0); seq < s.f.Size; seq += netsim.MSS {
		s.emit(seq, false)
	}
	// Proactive replay of the back half: if any original packet there
	// was lost to the burst, its copy arrives without waiting for a
	// timeout.
	for seq := s.f.Size / 2 / netsim.MSS * netsim.MSS; seq < s.f.Size; seq += netsim.MSS {
		s.emit(seq, true)
	}
	s.armRetry()
}

func (s *sender) emit(seq int64, retrans bool) {
	end := seq + netsim.MSS
	if end > s.f.Size {
		end = s.f.Size
	}
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, int32(end-seq), 0)
	pkt.Retrans = retrans
	s.f.Src.Send(pkt)
}

// armRetry is the loss backstop: on timeout, replay the whole (short)
// flow. The delay carries per-flow jitter so synchronized senders whose
// bursts collided do not collide identically on every retry.
func (s *sender) armRetry() {
	jitter := sim.Time(s.f.ID%16) * s.env.BaseRTT() / 4
	s.retry = s.env.Sched().After(s.env.RTO()+jitter, s.retryFn)
}

func (s *sender) retryFired() {
	if s.f.SenderDone() {
		return
	}
	for seq := int64(0); seq < s.f.Size; seq += netsim.MSS {
		s.emit(seq, true)
	}
	s.armRetry()
}

// Recycle implements transport.EndpointRecycler: the retry stops with
// the flow.
func (s *sender) Recycle(*transport.Env) { s.retry.Stop() }

// Handle implements netsim.Endpoint (Halfback needs no ACK clocking for
// short flows; ACKs only exist so the retry backstop can observe
// progress through flow completion).
func (s *sender) Handle(pkt *netsim.Packet) {}

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
	rc.r.Add(pkt.Seq, pkt.PayloadLen)
	if rc.r.Complete() {
		rc.env.Complete(rc.f)
	}
}
