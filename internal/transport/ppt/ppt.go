// Package ppt implements the paper's contribution: a pragmatic transport
// that runs DCTCP unchanged as a high-priority control loop (HCP) and
// adds a low-priority control loop (LCP) sending opportunistic packets
// from the tail of the same flow to fill the spare bandwidth.
//
// The three mechanisms of §3 and §4 map onto the code as follows:
//
//   - Intermittent loop initialization (§3.1), here: an LCP loop opens at
//     flow start with I = BDP − IW (delayed one RTT for identified-large
//     flows) and, after slow start, whenever the flow's DCTCP α reaches
//     its minimum over recent RTTs, with I = (½ − α_min)·W_max.
//   - Exponential window decreasing (§3.2), in package lowloop, whose
//     Loop the sender hosts and whose Receiver answers both loops: the
//     initial window is paced over one RTT; afterwards the receiver
//     returns one low-priority ACK per two opportunistic arrivals and the
//     sender sends one packet per non-ECE low-priority ACK, halving the
//     LCP rate every RTT. A loop terminates after two RTTs without
//     low-priority ACKs.
//   - Buffer-aware flow scheduling (§4), here: flows whose first syscall
//     exceeds the identification threshold are tagged large; packets are
//     tagged with mirror-symmetric priorities (HCP P0–P3, LCP P4–P7)
//     demoted as bytes are sent.
//
// Ablation switches reproduce the deep-dive variants of §6.3: DisableECN
// (Fig 15) and DisableEWD (Fig 16), which the loop applies,
// DisableScheduling (Fig 17) and DisableIdentification (Fig 18).
package ppt

import (
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/lowloop"
)

// Config tunes PPT.
type Config struct {
	// Ablations (all false in real PPT).
	DisableECN            bool // LCP ignores ECE (Fig 15)
	DisableEWD            bool // LCP sends at line rate, no 2:1 clock (Fig 16)
	DisableScheduling     bool // no per-flow priorities: HCP=P0, LCP=P4 (Fig 17)
	DisableIdentification bool // treat every flow as unidentified (Fig 18)

	// OnFlowState, when set, is invoked on every per-window α update
	// with a snapshot of the dual-loop state — the instrumentation
	// behind the Fig 5-style dynamics traces.
	OnFlowState func(flowID uint32, now sim.Time, st FlowState)
}

// FlowState is one dual-loop snapshot (see Config.OnFlowState).
type FlowState struct {
	Cwnd      float64 // HCP congestion window (bytes)
	Alpha     float64 // DCTCP α estimate
	Wmax      float64 // max window since slow-start exit
	LCPActive bool    // low loop currently open
	OppSent   int64   // cumulative opportunistic payload bytes
	SndUna    int64   // HCP cumulative-ACK frontier
	TailNext  int64   // LCP tail frontier
}

// identifyThreshold is the buffer-aware classifier's first-syscall
// byte threshold (Table 3: 100KB).
const identifyThreshold = 100_000

// demoteThresholds are the bytes-sent boundaries at which an
// unidentified flow moves from P0→P1→P2→P3 (mirror P4→…→P7).
var demoteThresholds = [3]int64{100_000, 1_000_000, 10_000_000}

// alphaHistory is how many recent per-RTT α observations the case-2
// trigger scans for the minimum.
const alphaHistory = 16

// Proto is the PPT protocol factory.
type Proto struct {
	Cfg Config
}

// Name implements transport.Protocol.
func (p Proto) Name() string {
	switch {
	case p.Cfg.DisableECN:
		return "ppt-noecn"
	case p.Cfg.DisableEWD:
		return "ppt-noewd"
	case p.Cfg.DisableScheduling:
		return "ppt-nosched"
	case p.Cfg.DisableIdentification:
		return "ppt-noident"
	default:
		return "ppt"
	}
}

// StartReceiver implements transport.Protocol: bind a pooled receiver.
func (p Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	f.Dst.Bind(f.ID, true, lowloop.GetReceiver(env, f))
}

// StartSender implements transport.Protocol: run the buffer-aware
// classifier (§4.1 — the first syscall's size against the threshold),
// then build, bind, and launch the sender.
func (p Proto) StartSender(env *transport.Env, f *transport.Flow) {
	if !p.Cfg.DisableIdentification && Large(f) {
		f.IdentifiedLarge = true
	}
	s := getSender(env, f, p.Cfg)
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

// Large is the buffer-aware classifier of §4.1: a flow whose first
// syscall exceeds the identification threshold is large.
func Large(f *transport.Flow) bool { return f.FirstCall > identifyThreshold }

// Tag is the mirror-symmetric tagging of §4.2 for the high part (P0–P3):
// identified-large flows start at P3, the rest are demoted as bytes are
// sent. The LCP mirror adds 4.
func Tag(f *transport.Flow, bytesSent int64) int8 {
	if f.IdentifiedLarge {
		return 3
	}
	for i, th := range demoteThresholds {
		if bytesSent < th {
			return int8(i)
		}
	}
	return 3
}

// hcpPrio is Tag under the scheduling ablation (Fig 17).
func hcpPrio(cfg Config, f *transport.Flow, bytesSent int64) int8 {
	if cfg.DisableScheduling {
		return 0
	}
	return Tag(f, bytesSent)
}

// sender is the unchanged DCTCP sender (HCP) hosting a lowloop.Loop
// (LCP), plus the loop's §3.1 triggers. The struct (with its embedded
// DCTCP sender and loop) is reusable: init retargets every field at a
// new flow, and the hot callbacks are bound once at construction so
// steady-state flows allocate nothing.
type sender struct {
	dctcp.Sender
	cfg Config
	lcp lowloop.Loop

	// pooled marks senders drawn from the Env pool (see getSender).
	pooled bool

	// alphas is the recent per-RTT α history the case-2 trigger scans.
	alphas []float64
	// openTimer delays an identified-large flow's case-1 loop by an RTT.
	openTimer sim.Timer

	// Callbacks bound once at construction: rebuilding a closure or
	// method value per flow or per arm would allocate.
	prioFn  func(int64) int8
	alphaFn func(float64)
	openFn  func()
}

// newIdleSender builds an unbound sender shell for the pool.
func newIdleSender() *sender {
	s := &sender{}
	s.prioFn = s.hcpPrio
	s.alphaFn = s.onAlpha
	s.openFn = s.openCase1
	return s
}

func (s *sender) hcpPrio(sent int64) int8 { return hcpPrio(s.cfg, s.F, sent) }

// init (re)targets the sender at a flow; a recycled struct after init is
// indistinguishable from a fresh newSender result.
func (s *sender) init(env *transport.Env, f *transport.Flow, cfg Config) {
	s.cfg = cfg
	s.Init(env, f, dctcp.Config{Prio: s.prioFn})
	s.Low = &s.lcp
	s.lcp.Init(env, f, &s.Sender, lowloop.Policy{NoECN: cfg.DisableECN, NoEWD: cfg.DisableEWD})
	s.alphas = s.alphas[:0]
	s.openTimer = sim.Timer{}
	s.OnAlpha = s.alphaFn
	if cfg.OnFlowState != nil {
		// Tracing path: the wrapper closure allocates per flow, which is
		// fine — dynamics traces run a handful of flows.
		s.OnAlpha = func(alpha float64) {
			s.onAlpha(alpha)
			cfg.OnFlowState(f.ID, env.Now(), FlowState{
				Cwnd: s.Cwnd, Alpha: s.Alpha, Wmax: s.Wmax,
				LCPActive: s.lcp.Active(), OppSent: s.lcp.OppSent(),
				SndUna: s.SndUna, TailNext: s.lcp.TailNext(),
			})
		}
	}
}

func newSender(env *transport.Env, f *transport.Flow, cfg Config) *sender {
	s := newIdleSender()
	s.init(env, f, cfg)
	return s
}

func (s *sender) launch() {
	s.Launch()
	// The case-1 loop opens at flow start, delayed to the second RTT for
	// identified-large flows (§3.1).
	if s.F.IdentifiedLarge {
		s.openTimer = s.Env.Sched().After(s.Env.BaseRTT(), s.openFn)
		return
	}
	s.openCase1()
}

// openCase1 opens the case-1 loop: I = BDP − IW (§3.1).
func (s *sender) openCase1() {
	if s.F.SenderDone() {
		return
	}
	s.lcp.Open(int64(s.Env.BDP())-dctcp.InitCwnd, false)
}

// onAlpha is the case-2 trigger: fires on every per-window α update. A
// loop opens when the fresh α is below the minimum of the recent
// history — i.e. "α takes the minimum value in the past RTTs" (§3.1) —
// which needs at least one prior observation to compare against.
func (s *sender) onAlpha(alpha float64) {
	prior := s.alphas
	s.alphas = append(s.alphas, alpha)
	if len(s.alphas) > alphaHistory {
		s.alphas = s.alphas[len(s.alphas)-alphaHistory:]
	}
	if s.lcp.Active() || !s.ExitedSS || s.F.SenderDone() || len(prior) == 0 {
		return
	}
	// Strictly below every recent observation: congestion is genuinely
	// easing, not plateauing.
	for _, a := range prior {
		if alpha >= a {
			return
		}
	}
	// I = (1/2 − α_min) · W_max  (Equation 2).
	s.lcp.Open(int64((0.5-alpha)*s.Wmax), true)
}

// Recycle implements transport.EndpointRecycler: every timer that could
// call back into this sender (HCP RTO, the loop's pacing and dead
// timers, the delayed case-1 open) is stopped, then pool-owned structs
// return to the freelist. Senders built with newSender (tests, traces)
// are left alone — their creators may still hold them.
func (s *sender) Recycle(env *transport.Env) {
	s.StopTimers()
	s.openTimer.Stop()
	if !s.pooled {
		return
	}
	s.pooled = false
	s.F = nil
	s.OnAlpha = nil
	transport.PoolFor(env, senderPool, newIdleSender).Put(s)
}

var senderPool = transport.NewPoolKey("ppt.sender")

// getSender returns an initialized sender from env's pool; it returns
// to the pool via Recycle when its flow completes.
func getSender(env *transport.Env, f *transport.Flow, cfg Config) *sender {
	s := transport.PoolFor(env, senderPool, newIdleSender).Get()
	s.init(env, f, cfg)
	s.pooled = true
	return s
}
