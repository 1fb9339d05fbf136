package ppt

import (
	"sync"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
)

// The "hypothetical DCTCP" of §2.3: an oracle that knows each flow's
// maximum window (MW) from a prior identical run and, every RTT, sends
// exactly enough low-priority opportunistic packets from the tail to
// fill the gap between the live congestion window, the bytes still in
// flight, and FillFraction×MW. The packets go out through lowloop's
// engine. A fill counts as in flight at the next tick only, less what
// low ACKs have covered; after that it is presumed delivered or lost.
//
// Figure 2 compares it against DCTCP/Homa/NDP at FillFraction=1;
// Figure 3 sweeps FillFraction from 0.5 to 1.5; Figure 20 reports its
// link utilization.

// MWRecorder is the oracle's first pass: plain DCTCP that keeps each
// flow's sender so the peak congestion window can be read back after the
// run. The senders of a windowed run start in several shards at once, so
// the map is guarded.
type MWRecorder struct {
	mu      sync.Mutex
	senders map[uint32]*dctcp.Sender
}

// NewMWRecorder builds an empty recorder.
func NewMWRecorder() *MWRecorder {
	return &MWRecorder{senders: make(map[uint32]*dctcp.Sender)}
}

// Name implements transport.Protocol.
func (*MWRecorder) Name() string { return "dctcp-mwrecord" }

// StartReceiver implements transport.Protocol.
func (*MWRecorder) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (m *MWRecorder) StartSender(env *transport.Env, f *transport.Flow) {
	s := dctcp.NewSender(env, f, dctcp.Config{})
	f.Src.Bind(f.ID, false, s)
	m.mu.Lock()
	m.senders[f.ID] = s
	m.mu.Unlock()
	s.Launch()
}

// MW snapshots the recorded maximum windows; call after the first pass
// finishes.
func (m *MWRecorder) MW() map[uint32]float64 {
	out := make(map[uint32]float64, len(m.senders))
	for id, s := range m.senders {
		out[id] = s.PeakCwnd
	}
	return out
}

// Oracle is the second pass.
type Oracle struct {
	// MW maps flow id -> recorded maximum window in bytes.
	MW map[uint32]float64
	// FillFraction scales the fill target (1.0 = the paper's choice).
	FillFraction float64
}

// Name implements transport.Protocol.
func (Oracle) Name() string { return "hypothetical-dctcp" }

// StartReceiver implements transport.Protocol: PPT's receiver, whose
// low-loop half acknowledges the opportunistic packets.
func (Oracle) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// oraclePolicy is the gap filler: each tick sizes the fill, and sends
// reach the high loop's frontier.
var oraclePolicy = lowloop.Policy{Unclocked: true, AtFrontier: true}

// StartSender implements transport.Protocol.
func (o Oracle) StartSender(env *transport.Env, f *transport.Flow) {
	frac := o.FillFraction
	if frac == 0 {
		frac = 1.0
	}
	s := &oracleSender{target: frac * o.MW[f.ID], tickTail: f.Size}
	s.Init(env, f, dctcp.Config{})
	s.Low = &s.lcp
	s.lcp.Init(env, f, &s.Sender, oraclePolicy)
	s.tickFn = s.onTick
	f.Src.Bind(f.ID, false, s)
	s.Launch()
	s.onTick()
}

// oracleSender is DCTCP's window sender hosting a low loop that a
// per-RTT tick opens as a gap filler.
type oracleSender struct {
	dctcp.Sender
	lcp    lowloop.Loop
	target float64
	// tickTail is the loop's tail at the previous tick.
	tickTail int64
	tick     sim.Timer
	tickFn   func()
}

// onTick fires once per RTT: it ends the previous fill, whose last pace
// event can fall on this instant, and opens one that fills the gap to
// the oracle target, paced evenly across the RTT.
func (s *oracleSender) onTick() {
	rtt := s.SRTT
	if rtt <= 0 {
		rtt = s.Env.BaseRTT()
	}
	// In flight: what the fill sent since the previous tick and no low
	// ACK covered. Older bytes are presumed delivered or lost.
	tail := s.lcp.TailNext()
	inflight := s.tickTail - tail - s.Skip.CoveredIn(tail, s.tickTail)
	s.tickTail = tail
	s.lcp.Terminate()
	if gap := int64(s.target-s.Cwnd) - inflight; gap > 0 {
		// Whole packets: Open refuses a window under one MSS.
		s.lcp.Open((gap+netsim.MSS-1)/netsim.MSS*netsim.MSS, false)
	}
	s.tick = s.Env.Sched().After(rtt, s.tickFn)
}

// Recycle implements transport.EndpointRecycler: the tick stops with
// the RTO and the loop's timers.
func (s *oracleSender) Recycle(env *transport.Env) {
	s.tick.Stop()
	s.Sender.Recycle(env)
}
