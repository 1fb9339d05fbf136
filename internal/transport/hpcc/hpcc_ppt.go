package hpcc

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
)

// Appendix B of the paper sketches PPT's design as a building block for
// INT-based transports: "one may open a PPT LCP loop to send
// low-priority opportunistic packets whenever HPCC's estimated in-flight
// bytes are smaller than BDP". WithPPT implements exactly that: HPCC's
// law runs on every ACK as in plain HPCC, and the utilization U it
// estimates gates the low loop (U below the target η means measured
// spare capacity), sized to the unused share of the BDP. The loop and
// the receiver are lowloop's, the ones PPT itself runs.

// PPTVariant wraps HPCC with PPT's low-priority loop (appendix B).
type PPTVariant struct{}

// Name implements transport.Protocol.
func (PPTVariant) Name() string { return "hpcc+ppt" }

// StartReceiver implements transport.Protocol.
func (PPTVariant) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.NewReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (PPTVariant) StartSender(env *transport.Env, f *transport.Flow) {
	s := newPPTSender(env, f)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

// pptSender extends the HPCC sender with the low loop.
type pptSender struct {
	sender
	loop      *lowloop.Loop
	loopOpens int
}

func newPPTSender(env *transport.Env, f *transport.Flow) *pptSender {
	s := &pptSender{}
	s.init(env, f, s)
	s.loop = lowloop.New(env, f, s)
	return s
}

// Ack implements dctcp.Law: HPCC's law, then the appendix-B trigger —
// telemetry says the path has spare capacity for opportunistic packets.
func (s *pptSender) Ack(pkt *netsim.Packet, _ int64) {
	if u := s.echo(pkt); u > 0 && u < eta && !s.loop.Active() {
		s.loop.Open(int64((1-u)*float64(s.Env.BDP())), s.loopOpens > 0)
		s.loopOpens++
	}
}

// Handle implements netsim.Endpoint: low-loop ACKs feed the loop, the
// rest the sender.
func (s *pptSender) Handle(pkt *netsim.Packet) {
	if pkt.LowLoop && pkt.Kind == netsim.Ack && !s.F.SenderDone() {
		s.loop.OnLowAck(pkt)
		return
	}
	s.Sender.Handle(pkt)
}

// Frontier implements lowloop.Host.
func (s *pptSender) Frontier() int64 { return s.SndNxt }

// Acked implements lowloop.Host.
func (s *pptSender) Acked() int64 { return s.SndUna }

// Window implements lowloop.Host.
func (s *pptSender) Window() float64 { return s.Cwnd }

// RTT implements lowloop.Host.
func (s *pptSender) RTT() sim.Time { return s.Env.BaseRTT() }

// LowPrio implements lowloop.Host: HPCC has no per-flow scheduling, so
// all opportunistic packets ride the first low priority.
func (s *pptSender) LowPrio() int8 { return 4 }

// SkipSet implements lowloop.Host.
func (s *pptSender) SkipSet() *transport.IntervalSet { return s.Skip }

// OnSkipUpdate implements lowloop.Host.
func (s *pptSender) OnSkipUpdate() { s.TrySend() }
