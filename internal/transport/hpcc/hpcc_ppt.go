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
// the receiver are lowloop's, the ones PPT itself runs; the window
// sender hosts the loop, which paces on the base RTT.

// PPTVariant wraps HPCC with PPT's low-priority loop (appendix B).
type PPTVariant struct{}

// Name implements transport.Protocol.
func (PPTVariant) Name() string { return "hpcc+ppt" }

// StartReceiver implements transport.Protocol.
func (PPTVariant) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (PPTVariant) StartSender(env *transport.Env, f *transport.Flow) {
	s := newPPTSender(env, f)
	f.Src.Bind(f.ID, false, s)
	s.Launch()
}

// pptSender extends the HPCC sender with the appendix-B trigger.
type pptSender struct {
	sender
	loopOpens int
}

func newPPTSender(env *transport.Env, f *transport.Flow) *pptSender {
	s := &pptSender{}
	s.init(env, f, s)
	s.Low = lowloop.New(env, f, s)
	return s
}

// Ack implements dctcp.Law: HPCC's law, then the appendix-B trigger —
// telemetry says the path has spare capacity for opportunistic packets.
func (s *pptSender) Ack(pkt *netsim.Packet, _ int64) {
	if u := s.echo(pkt); u > 0 && u < eta && !s.Low.Active() {
		s.Low.Open(int64((1-u)*float64(s.Env.BDP())), s.loopOpens > 0)
		s.loopOpens++
	}
}

// RTT implements lowloop.Host: HPCC keeps no RTT estimate of its own,
// so the loop paces over the base RTT.
func (s *pptSender) RTT() sim.Time { return s.Env.BaseRTT() }
