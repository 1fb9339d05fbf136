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
// fill the gap between the live congestion window and FillFraction×MW.
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

// StartSender implements transport.Protocol.
func (o Oracle) StartSender(env *transport.Env, f *transport.Flow) {
	frac := o.FillFraction
	if frac == 0 {
		frac = 1.0
	}
	s := &oracleSender{
		env:      env,
		f:        f,
		target:   frac * o.MW[f.ID],
		tailNext: f.Size,
	}
	s.hcp = dctcp.NewSender(env, f, dctcp.Config{})
	f.Src.Bind(f.ID, false, s)
	s.hcp.Launch()
	s.tick()
}

// oracleSender runs DCTCP plus a per-RTT gap filler.
type oracleSender struct {
	env      *transport.Env
	f        *transport.Flow
	hcp      *dctcp.Sender
	target   float64
	tailNext int64
	inflight int64
}

// Handle implements netsim.Endpoint.
func (s *oracleSender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if pkt.LowLoop {
		if n, ok := transport.FoldLowAck(s.env, pkt, s.hcp.Skip); ok {
			s.inflight = max(s.inflight-n, 0)
			s.hcp.TrySend()
		}
		return
	}
	s.hcp.ProcessAck(pkt)
}

// tick fires once per RTT: fill the gap to the oracle target, paced
// evenly across the RTT.
func (s *oracleSender) tick() {
	if s.f.SenderDone() {
		return
	}
	rtt := s.hcp.SRTT
	if rtt <= 0 {
		rtt = s.env.BaseRTT()
	}
	gap := int64(s.target-s.hcp.Cwnd) - s.inflight
	if gap > 0 && s.tailNext > s.hcp.SndNxt {
		pkts := (gap + netsim.MSS - 1) / netsim.MSS
		gapPace := rtt / sim.Time(pkts)
		s.paceBurst(pkts, gapPace)
	}
	s.env.Sched().After(rtt, s.tick)
}

func (s *oracleSender) paceBurst(left int64, gapPace sim.Time) {
	if left <= 0 || s.f.SenderDone() {
		return
	}
	if !s.sendOpportunistic() {
		return
	}
	s.env.Sched().After(gapPace, func() { s.paceBurst(left-1, gapPace) })
}

func (s *oracleSender) sendOpportunistic() bool {
	seq := s.tailNext - netsim.MSS
	if seq < s.hcp.SndNxt {
		seq = s.hcp.SndNxt
	}
	if seq >= s.tailNext {
		return false
	}
	n := int32(s.tailNext - seq)
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, n, 4)
	pkt.ECT = true
	pkt.LowLoop = true
	s.f.Src.Send(pkt)
	s.env.Eff.SentLowPayload += int64(n)
	s.inflight += int64(n)
	s.tailNext = seq
	return true
}
