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
// bytes are smaller than BDP". WithPPT implements exactly that: the
// per-ACK telemetry utilization U gates the low loop (U below the target
// η means measured spare capacity), sized to the unused share of the
// BDP. The loop and the receiver's coalescing half are lowloop's, the
// ones PPT itself runs.

// PPTVariant wraps HPCC with PPT's low-priority loop (appendix B).
type PPTVariant struct{}

// Name implements transport.Protocol.
func (PPTVariant) Name() string { return "hpcc+ppt" }

// StartReceiver implements transport.Protocol.
func (PPTVariant) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, newReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (PPTVariant) StartSender(env *transport.Env, f *transport.Flow) {
	w := float64(env.BDP())
	s := &pptSender{sender: sender{env: env, f: f, wnd: w, wc: w}}
	s.loop = lowloop.New(env, f, s)
	f.Src.Bind(f.ID, false, s)
	s.trySend()
}

// pptSender extends the HPCC sender with the low loop.
type pptSender struct {
	sender
	loop      *lowloop.Loop
	loopOpens int
	lastU     float64
}

// Frontier implements lowloop.Host.
func (s *pptSender) Frontier() int64 { return s.sndNxt }

// Acked implements lowloop.Host.
func (s *pptSender) Acked() int64 { return s.sndUna }

// Window implements lowloop.Host.
func (s *pptSender) Window() float64 { return s.wnd }

// RTT implements lowloop.Host.
func (s *pptSender) RTT() sim.Time { return s.env.BaseRTT() }

// LowPrio implements lowloop.Host: HPCC has no per-flow scheduling, so
// all opportunistic packets ride the first low priority.
func (s *pptSender) LowPrio() int8 { return 4 }

// SkipSet implements lowloop.Host.
func (s *pptSender) SkipSet() *transport.IntervalSet { return &s.skip }

// OnSkipUpdate implements lowloop.Host.
func (s *pptSender) OnSkipUpdate() { s.trySend() }

// Handle implements netsim.Endpoint.
func (s *pptSender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if pkt.LowLoop {
		s.loop.OnLowAck(pkt)
		return
	}
	if ints, ok := pkt.Meta.([]netsim.INTHop); ok && len(ints) > 0 {
		s.lastU = s.reactU(ints)
		// reactU copied what it keeps (prevINT); recycle the array.
		s.f.Src.Pool().PutINT(ints)
		pkt.Meta = nil
		// The appendix-B trigger: telemetry says the path has spare
		// capacity for opportunistic packets.
		if s.lastU > 0 && s.lastU < eta && !s.loop.Active() {
			i := int64((1 - s.lastU) * float64(s.env.BDP()))
			s.loop.Open(i, s.loopOpens > 0)
			s.loopOpens++
		}
	}
	s.processCum(pkt)
	s.trySend()
}
