// Package hpcc implements HPCC [25]: high-precision congestion control
// driven by in-band network telemetry. Every data packet gathers per-hop
// (qlen, txBytes, ts, rate) records; the receiver echoes them on ACKs;
// the sender estimates per-hop normalized inflight U and sets
//
//	W = W_c / (U/η) + W_AI            (multiplicative, U ≥ η)
//	W = W + W_AI                      (additive, up to maxStage stages)
//
// updating the reference window W_c once per RTT. Run HPCC on a fabric
// built with topo.Config.EnableINT = true.
package hpcc

import (
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/lowloop"
)

// HPCC's constants. The initial window is not one of them: it is the
// fabric BDP, which StartSender reads from the Env.
const (
	// eta is the target utilization η.
	eta = 0.95
	// maxStage bounds consecutive additive-increase stages.
	maxStage = 5
	// wAI is the additive increase in bytes per adjustment: MSS/2 (724
	// bytes), a fraction of a packet, per the paper's guidance for many
	// concurrent flows.
	wAI = netsim.MSS / 2
)

// Proto is the HPCC protocol factory.
type Proto struct{}

// Name implements transport.Protocol.
func (Proto) Name() string { return "hpcc" }

// StartReceiver implements transport.Protocol.
func (Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, newReceiver(env, f))
}

// StartSender implements transport.Protocol.
func (Proto) StartSender(env *transport.Env, f *transport.Flow) {
	w := float64(env.BDP())
	s := &sender{env: env, f: f, wnd: w, wc: w}
	f.Src.Bind(f.ID, false, s)
	s.trySend()
}

type sender struct {
	env *transport.Env
	f   *transport.Flow

	wnd          float64 // current window W
	wc           float64 // reference window W_c
	incStage     int
	lastWcUpdate sim.Time

	sndUna, sndNxt int64
	skip           transport.IntervalSet // bytes delivered by a low loop
	prevINT        []netsim.INTHop
	dupAcks        int
	rto            sim.Timer
}

func (s *sender) inflight() int64 {
	out := s.sndNxt - s.sndUna
	if out <= 0 {
		return 0
	}
	return out - s.skip.CoveredIn(s.sndUna, s.sndNxt)
}

func (s *sender) trySend() {
	if s.f.SenderDone() {
		return
	}
	for s.sndNxt < s.f.Size {
		if float64(s.inflight())+netsim.MSS > s.wnd && s.inflight() > 0 {
			break
		}
		seq := s.skip.ContiguousFrom(s.sndNxt)
		end := seq + netsim.MSS
		if end > s.f.Size {
			end = s.f.Size
		}
		if cov := s.skip.FirstCoveredIn(seq, end); cov < end {
			end = cov
		}
		if seq >= s.f.Size || end <= seq {
			break
		}
		s.transmit(seq, int32(end-seq), false)
		s.sndNxt = end
	}
	s.armRTO()
}

func (s *sender) transmit(seq int64, n int32, retrans bool) {
	pkt := s.f.Src.Data(s.f.ID, s.f.Dst.ID(), seq, n, 0)
	pkt.INT = s.f.Src.Pool().GetINT()
	pkt.Retrans = retrans
	s.f.Src.Send(pkt)
}

func (s *sender) armRTO() {
	if s.inflight() <= 0 || s.f.SenderDone() {
		s.rto.Stop()
		return
	}
	if s.rto.Pending() {
		return
	}
	s.rto = s.env.Sched().After(s.env.RTO(), s.onRTO)
}

func (s *sender) onRTO() {
	if s.f.SenderDone() || s.inflight() <= 0 {
		return
	}
	s.sndNxt = s.sndUna
	s.wnd = netsim.MSS
	end := s.sndUna + netsim.MSS
	if end > s.f.Size {
		end = s.f.Size
	}
	s.transmit(s.sndUna, int32(end-s.sndUna), true)
	s.sndNxt = end
	s.rto = s.env.Sched().After(s.env.RTO(), s.onRTO)
}

// Handle implements netsim.Endpoint.
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() || pkt.Kind != netsim.Ack {
		return
	}
	if ints, ok := pkt.Meta.([]netsim.INTHop); ok && len(ints) > 0 {
		s.react(ints)
		// react copied what it keeps (prevINT); the telemetry array the
		// receiver handed us can go back to the pool.
		s.f.Src.Pool().PutINT(ints)
		pkt.Meta = nil
	}
	s.processCum(pkt)
	s.trySend()
}

// processCum applies the cumulative-ACK bookkeeping shared with the
// appendix-B variant.
func (s *sender) processCum(pkt *netsim.Packet) {
	if pkt.Seq > s.sndUna {
		s.sndUna = pkt.Seq
		if s.sndUna > s.sndNxt {
			s.sndNxt = s.sndUna
		}
		s.dupAcks = 0
		s.rto.Stop()
	} else if s.inflight() > 0 {
		s.dupAcks++
		if s.dupAcks == 3 {
			seq := s.skip.ContiguousFrom(s.sndUna)
			end := seq + netsim.MSS
			if end > s.f.Size {
				end = s.f.Size
			}
			if end > seq {
				s.transmit(seq, int32(end-seq), true)
			}
			s.dupAcks = 0
		}
	}
}

// react runs the HPCC window computation against echoed telemetry.
func (s *sender) react(cur []netsim.INTHop) {
	u := s.reactU(cur)
	if u == 0 {
		return
	}
	if u >= eta || s.incStage >= maxStage {
		s.wnd = s.wc/(u/eta) + wAI
		s.maybeUpdateWc(true)
	} else {
		s.wnd = s.wc + wAI
		s.maybeUpdateWc(false)
	}
	if s.wnd < netsim.MSS {
		s.wnd = netsim.MSS
	}
}

// reactU estimates the maximum per-hop normalized inflight U from two
// consecutive telemetry snapshots (0 until a baseline exists).
func (s *sender) reactU(cur []netsim.INTHop) float64 {
	if s.prevINT == nil || len(s.prevINT) != len(cur) {
		s.prevINT = append([]netsim.INTHop(nil), cur...)
		return 0
	}
	baseT := s.env.BaseRTT().Seconds()
	u := 0.0
	for j := range cur {
		dt := (cur[j].TS - s.prevINT[j].TS).Seconds()
		if dt <= 0 {
			continue
		}
		bps := float64(cur[j].Rate) / 8 // bytes per second
		qlen := float64(min(cur[j].QLen, s.prevINT[j].QLen))
		txRate := float64(cur[j].TxBytes-s.prevINT[j].TxBytes) / dt
		uj := qlen/(bps*baseT) + txRate/bps
		if uj > u {
			u = uj
		}
	}
	s.prevINT = append(s.prevINT[:0], cur...)
	return u
}

// maybeUpdateWc commits the reference window once per base RTT.
func (s *sender) maybeUpdateWc(mi bool) {
	now := s.env.Now()
	if now-s.lastWcUpdate < s.env.BaseRTT() {
		return
	}
	s.lastWcUpdate = now
	s.wc = s.wnd
	if mi {
		s.incStage = 0
	} else {
		s.incStage++
	}
}

// receiver acknowledges every data packet, echoing its telemetry; with
// the appendix-B variant its lowloop half also acknowledges the
// opportunistic packets.
type receiver struct {
	lowloop.Receiver
	env *transport.Env
	f   *transport.Flow
}

func newReceiver(env *transport.Env, f *transport.Flow) *receiver {
	rc := &receiver{env: env, f: f}
	rc.Init(env, f)
	return rc
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	if rc.Deliver(pkt) {
		ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), 0)
		ack.Seq = rc.R.CumAck()
		ack.EchoTS = pkt.SentAt
		if len(pkt.INT) > 0 {
			// Move ownership: the data packet is recycled when this Handle
			// returns, so the ACK must take the telemetry array with it.
			ack.Meta = pkt.INT
			pkt.INT = nil
		}
		rc.f.Dst.Send(ack)
	}
	if rc.R.Complete() {
		rc.env.Complete(rc.f)
	}
}
