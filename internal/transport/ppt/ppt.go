// Package ppt implements the paper's contribution: a pragmatic transport
// that runs DCTCP unchanged as a high-priority control loop (HCP) and
// adds a low-priority control loop (LCP) sending opportunistic packets
// from the tail of the same flow to fill the spare bandwidth.
//
// The three mechanisms of §3 and §4 appear here directly:
//
//   - Intermittent loop initialization (§3.1): an LCP loop opens at flow
//     start with I = BDP − IW (delayed one RTT for identified-large
//     flows) and, after slow start, whenever the flow's DCTCP α reaches
//     its minimum over recent RTTs, with I = (½ − α_min)·W_max.
//   - Exponential window decreasing (§3.2): the initial window is paced
//     over one RTT; afterwards the receiver returns one low-priority ACK
//     per two opportunistic arrivals and the sender sends one packet per
//     non-ECE low-priority ACK, halving the LCP rate every RTT. A loop
//     terminates after two RTTs without low-priority ACKs.
//   - Buffer-aware flow scheduling (§4): flows whose first syscall
//     exceeds the identification threshold are tagged large; packets are
//     tagged with mirror-symmetric priorities (HCP P0–P3, LCP P4–P7)
//     demoted as bytes are sent.
//
// Ablation switches reproduce the deep-dive variants of §6.3: DisableECN
// (Fig 15), DisableEWD (Fig 16), DisableScheduling (Fig 17),
// DisableIdentification (Fig 18).
package ppt

import (
	"sync/atomic"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
)

// Config tunes PPT.
type Config struct {
	// DCTCP configures the embedded HCP loop.
	DCTCP dctcp.Config

	// IdentifyThreshold is the buffer-aware classifier's first-syscall
	// byte threshold (default 100KB, Table 3).
	IdentifyThreshold int64

	// DemoteThresholds are the bytes-sent boundaries at which an
	// unidentified flow moves from P0→P1→P2→P3 (mirror P4→…→P7).
	DemoteThresholds [3]int64

	// AlphaHistory is how many recent per-RTT α observations the
	// case-2 trigger scans for the minimum (default 16).
	AlphaHistory int

	// Ablations (all false in real PPT).
	DisableECN            bool // LCP ignores ECE (Fig 15)
	DisableEWD            bool // LCP sends at line rate, no 2:1 clock (Fig 16)
	DisableScheduling     bool // no per-flow priorities: HCP=P0, LCP=P4 (Fig 17)
	DisableIdentification bool // treat every flow as unidentified (Fig 18)
	DisableLCP            bool // degenerate to plain DCTCP with tagging

	// NoDelayLCPForLarge disables §3.1's one-RTT delay of the case-1
	// loop for identified-large flows (ablation studies only).
	NoDelayLCPForLarge bool

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

func (c Config) withDefaults() Config {
	if c.IdentifyThreshold == 0 {
		c.IdentifyThreshold = 100_000
	}
	if c.DemoteThresholds == [3]int64{} {
		c.DemoteThresholds = [3]int64{100_000, 1_000_000, 10_000_000}
	}
	if c.AlphaHistory == 0 {
		c.AlphaHistory = 16
	}
	return c
}

// DebugCounters aggregates the dual-loop diagnostics a run produces:
// how LCP packets were emitted (paced vs ACK-clocked), why loops opened
// (case 1 vs case 2), and the fresh/duplicate byte split per loop. All
// increments are atomic, so a single counter set may be shared by
// simulations running on different goroutines without tearing.
type DebugCounters struct {
	PacedPkts, ClockedPkts     int64
	Case1Opens, Case2Opens     int64
	DupLowBytes, NewLowBytes   int64
	DupHighBytes, NewHighBytes int64
}

func (d *DebugCounters) inc(f *int64)          { atomic.AddInt64(f, 1) }
func (d *DebugCounters) add(f *int64, n int64) { atomic.AddInt64(f, n) }

// Snapshot returns a consistent copy of the counters.
func (d *DebugCounters) Snapshot() DebugCounters {
	return DebugCounters{
		PacedPkts:    atomic.LoadInt64(&d.PacedPkts),
		ClockedPkts:  atomic.LoadInt64(&d.ClockedPkts),
		Case1Opens:   atomic.LoadInt64(&d.Case1Opens),
		Case2Opens:   atomic.LoadInt64(&d.Case2Opens),
		DupLowBytes:  atomic.LoadInt64(&d.DupLowBytes),
		NewLowBytes:  atomic.LoadInt64(&d.NewLowBytes),
		DupHighBytes: atomic.LoadInt64(&d.DupHighBytes),
		NewHighBytes: atomic.LoadInt64(&d.NewHighBytes),
	}
}

// Reset zeroes the counters.
func (d *DebugCounters) Reset() {
	atomic.StoreInt64(&d.PacedPkts, 0)
	atomic.StoreInt64(&d.ClockedPkts, 0)
	atomic.StoreInt64(&d.Case1Opens, 0)
	atomic.StoreInt64(&d.Case2Opens, 0)
	atomic.StoreInt64(&d.DupLowBytes, 0)
	atomic.StoreInt64(&d.NewLowBytes, 0)
	atomic.StoreInt64(&d.DupHighBytes, 0)
	atomic.StoreInt64(&d.NewHighBytes, 0)
}

// Debug accumulates every run's counters process-wide (cmd/ppttrace
// reads it after a single serial run).
var Debug DebugCounters

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

// Start implements transport.Protocol.
func (p Proto) Start(env *transport.Env, f *transport.Flow) {
	p.StartReceiver(env, f)
	p.StartSender(env, f)
}

// StartReceiver implements transport.ShardableProtocol: build and bind
// the receiver endpoint only. It is pure setup — no clock reads, no
// scheduling, no sends — so the windowed driver may invoke it on the
// barrier thread in the destination host's shard.
func (p Proto) StartReceiver(env *transport.Env, f *transport.Flow) {
	cfg := p.Cfg.withDefaults()
	r := getReceiver(env, f, cfg)
	f.Dst.Bind(f.ID, true, r)
}

// StartSender implements transport.ShardableProtocol: run the
// buffer-aware classifier (§4.1 — the first syscall's size against the
// threshold), then build, bind, and launch the sender at the flow's
// arrival time in the source host's shard.
func (p Proto) StartSender(env *transport.Env, f *transport.Flow) {
	cfg := p.Cfg.withDefaults()
	if !cfg.DisableIdentification && f.FirstCall > cfg.IdentifyThreshold {
		f.IdentifiedLarge = true
	}
	s := getSender(env, f, cfg)
	f.Src.Bind(f.ID, false, s)
	s.launch()
}

// RecyclesFlows implements transport.FlowRecycler: Recycle stops every
// timer either endpoint armed (HCP RTO, LCP pacing/open/dead timers,
// receiver quiet-flush), so no pending callback can reach a recycled
// Flow.
func (Proto) RecyclesFlows() {}

// hcpPrio implements the mirror-symmetric tagging of §4.2 for the high
// part (P0–P3); the LCP mirror adds 4.
func hcpPrio(cfg Config, f *transport.Flow, bytesSent int64) int8 {
	if cfg.DisableScheduling {
		return 0
	}
	if f.IdentifiedLarge {
		return 3
	}
	for i, th := range cfg.DemoteThresholds {
		if bytesSent < th {
			return int8(i)
		}
	}
	return 3
}

// sender couples the unchanged DCTCP sender (HCP) with the LCP loop.
// The struct (with its embedded DCTCP sender and LCP loop) is reusable:
// init retargets every field at a new flow, and the hot callbacks are
// bound once at construction so steady-state flows allocate nothing.
type sender struct {
	transport.PoolNode
	env *transport.Env
	f   *transport.Flow
	cfg Config
	hcp *dctcp.Sender
	lcp *lcpLoop

	// useLCP mirrors !cfg.DisableLCP; the lcp struct itself is always
	// present so it can be recycled along with the sender.
	useLCP bool
	// pooled marks senders drawn from the Env pool (see getSender).
	pooled bool

	// prioFn is the HCP priority hook handed to DCTCP, bound once;
	// rebuilding the closure per flow would allocate.
	prioFn func(int64) int8
}

// newIdleSender builds an unbound sender shell for the pool.
func newIdleSender() *sender {
	s := &sender{}
	s.prioFn = s.hcpPrio
	s.hcp = dctcp.NewIdleSender()
	s.lcp = newIdleLCP(s)
	return s
}

func (s *sender) hcpPrio(sent int64) int8 { return hcpPrio(s.cfg, s.f, sent) }

// init (re)targets the sender at a flow; a recycled struct after init is
// indistinguishable from a fresh newSender result.
func (s *sender) init(env *transport.Env, f *transport.Flow, cfg Config) {
	s.env, s.f, s.cfg = env, f, cfg
	dcfg := cfg.DCTCP
	dcfg.Prio = s.prioFn
	s.hcp.Init(env, f, dcfg)
	s.useLCP = !cfg.DisableLCP
	s.lcp.init()
	if s.useLCP {
		s.hcp.OnAlpha = s.lcp.alphaFn
	}
	if cfg.OnFlowState != nil {
		// Tracing path: the wrapper closure allocates per flow, which is
		// fine — dynamics traces run a handful of flows.
		prev := s.hcp.OnAlpha
		s.hcp.OnAlpha = func(alpha float64) {
			if prev != nil {
				prev(alpha)
			}
			st := FlowState{
				Cwnd: s.hcp.Cwnd, Alpha: s.hcp.Alpha, Wmax: s.hcp.Wmax,
				SndUna: s.hcp.SndUna,
			}
			if s.useLCP {
				st.LCPActive = s.lcp.active
				st.OppSent = s.lcp.oppSent
				st.TailNext = s.lcp.tailNext
			}
			cfg.OnFlowState(f.ID, env.Now(), st)
		}
	}
}

func newSender(env *transport.Env, f *transport.Flow, cfg Config) *sender {
	s := newIdleSender()
	s.init(env, f, cfg)
	return s
}

func (s *sender) launch() {
	s.hcp.Launch()
	if s.useLCP {
		s.lcp.onFlowStart()
	}
}

// StopTimers implements transport.SenderQuiescer: cancel every pending
// timer that could call back into this sender (HCP RTO, LCP
// pacing/open/dead timers) without recycling it. Idempotent, so the
// later Recycle's own stops are harmless.
func (s *sender) StopTimers() {
	s.hcp.StopTimers()
	s.lcp.stopTimers()
}

// Recycle implements transport.EndpointRecycler: every timer that could
// call back into this sender is stopped, then pool-owned structs return
// to the freelist. Senders built with newSender (tests, traces) are left
// alone — their creators may still hold them.
func (s *sender) Recycle(env *transport.Env) {
	s.StopTimers()
	if !s.pooled {
		return
	}
	s.pooled = false
	s.f = nil
	s.hcp.OnAlpha = nil
	s.hcp.OnAck = nil
	transport.PoolFor(env, senderPool, newIdleSender).Put(s)
}

// Handle implements netsim.Endpoint: high-priority ACKs feed DCTCP,
// low-priority ACKs feed the LCP loop.
func (s *sender) Handle(pkt *netsim.Packet) {
	if s.f.SenderDone() {
		return
	}
	if pkt.Kind != netsim.Ack {
		return
	}
	if pkt.LowLoop {
		if s.useLCP {
			s.lcp.onLowAck(pkt)
		}
		return
	}
	s.hcp.ProcessAck(pkt)
}

// lcpLoop is the low-priority control loop of §3.
type lcpLoop struct {
	s *sender

	active bool
	// tailNext is the byte offset of the next opportunistic segment's
	// start; it moves downward from the flow tail.
	tailNext int64

	// budget is the remaining initial-window bytes of the current loop
	// (case-1/case-2 I); once spent, the loop is purely ACK-clocked.
	budget  int64
	paceGap sim.Time
	pacing  bool

	// guarded marks case-2 loops, which additionally cap their budget
	// to the gap beyond two HCP windows.
	guarded bool

	// alpha history for the case-2 trigger.
	alphas []float64

	// termination timer: 2 RTTs without low-priority ACKs.
	deadTimer sim.Timer
	// openTimer and paceTimer track the delayed case-1 open and the
	// self-rescheduling pacing chain, so Recycle can cancel them before
	// the struct is handed to another flow.
	openTimer sim.Timer
	paceTimer sim.Timer

	// Callbacks bound once at construction: re-deriving a method value at
	// every timer arm allocates a closure per event.
	alphaFn func(float64)
	paceFn  func()
	termFn  func()
	openFn  func()

	// oppSent is the cumulative opportunistic payload sent.
	oppSent int64
}

// newIdleLCP builds the loop shell with its callbacks bound; init
// resets the per-flow state.
func newIdleLCP(s *sender) *lcpLoop {
	l := &lcpLoop{s: s}
	l.alphaFn = l.onAlpha
	l.paceFn = l.paceOne
	l.termFn = l.terminate
	l.openFn = l.openCase1
	return l
}

// init resets the loop for its sender's (re)initialized flow. Must run
// after the HCP sender's Init: bufferedTail reads its SndUna.
func (l *lcpLoop) init() {
	l.active = false
	l.tailNext = l.bufferedTail()
	l.budget = 0
	l.paceGap = 0
	l.pacing = false
	l.guarded = false
	l.alphas = l.alphas[:0]
	l.deadTimer = sim.Timer{}
	l.openTimer = sim.Timer{}
	l.paceTimer = sim.Timer{}
	l.oppSent = 0
}

// stopTimers cancels every pending callback into the loop.
func (l *lcpLoop) stopTimers() {
	l.deadTimer.Stop()
	l.openTimer.Stop()
	l.paceTimer.Stop()
}

// rtt is the loop pacing interval base.
func (l *lcpLoop) rtt() sim.Time {
	if r := l.s.hcp.SRTT; r > 0 {
		return r
	}
	return l.s.env.BaseRTT()
}

// onFlowStart opens the case-1 loop, delayed to the 2nd RTT for
// identified-large flows.
func (l *lcpLoop) onFlowStart() {
	if l.s.f.IdentifiedLarge && !l.s.cfg.NoDelayLCPForLarge {
		l.openTimer = l.s.env.Sched().After(l.s.env.BaseRTT(), l.openFn)
		return
	}
	l.openCase1()
}

// openCase1 opens the case-1 loop: I = BDP − IW (§3.1).
func (l *lcpLoop) openCase1() {
	if l.s.f.SenderDone() {
		return
	}
	Debug.inc(&Debug.Case1Opens)
	i := int64(l.s.env.BDP()) - l.s.hcp.C.InitCwnd
	l.open(i, false)
}

// onAlpha is the case-2 trigger: fires on every per-window α update. A
// loop opens when the fresh α is at or below the minimum of the recent
// history — i.e. "α takes the minimum value in the past RTTs" (§3.1) —
// which needs at least one prior observation to compare against.
func (l *lcpLoop) onAlpha(alpha float64) {
	prior := l.alphas
	l.alphas = append(l.alphas, alpha)
	if len(l.alphas) > l.s.cfg.AlphaHistory {
		l.alphas = l.alphas[len(l.alphas)-l.s.cfg.AlphaHistory:]
	}
	if l.active || !l.s.hcp.ExitedSS || l.s.f.SenderDone() || len(prior) == 0 {
		return
	}
	min := prior[0]
	for _, a := range prior {
		if a < min {
			min = a
		}
	}
	// Strictly below every recent observation: congestion is genuinely
	// easing, not plateauing.
	if alpha >= min {
		return
	}
	// I = (1/2 − α_min) · W_max  (Equation 2).
	Debug.inc(&Debug.Case2Opens)
	l.open(int64((0.5-alpha)*l.s.hcp.Wmax), true)
}

// bufferedTail is the highest byte offset present in the modeled send
// buffer (Env.SendBuf): the application has only copied SendBuf bytes
// beyond what the receiver has consumed.
func (l *lcpLoop) bufferedTail() int64 {
	if l.s.env.SendBuf <= 0 {
		return l.s.f.Size
	}
	upper := l.s.hcp.SndUna + l.s.env.SendBuf
	if upper > l.s.f.Size {
		upper = l.s.f.Size
	}
	return upper
}

// open starts a loop with initial window i, paced over one RTT (EWD) or
// blasted at line rate when the EWD ablation is on.
func (l *lcpLoop) open(i int64, guarded bool) {
	if i < netsim.MSS || l.active {
		return
	}
	if guarded {
		// Fill only the gap HCP cannot cover itself this round: the
		// unsent bytes minus roughly two windows of HCP progress.
		spare := l.tailNext - l.s.hcp.SndNxt - 2*int64(l.s.hcp.Cwnd)
		if i > spare {
			i = spare
		}
		if i < netsim.MSS {
			return
		}
	}
	l.guarded = guarded
	// With a finite send buffer, a fresh loop restarts from the buffered
	// tail: the buffer slid as the receiver consumed data, exposing
	// bytes above where the previous loop stopped. (With an unbounded
	// buffer tailNext is already the true frontier; resetting it would
	// re-walk — and duplicate — the already-sent tail.)
	if l.s.env.SendBuf > 0 {
		if t := l.bufferedTail(); t > l.tailNext {
			l.tailNext = t
		}
	}
	// Never send below what HCP is about to cover.
	if l.tailNext <= l.s.hcp.SndNxt {
		return
	}
	l.active = true
	l.budget = i
	if l.s.cfg.DisableEWD {
		// Fig 16 variant: opportunistic packets at line rate — the
		// whole remaining tail, no pacing, no clocking discipline.
		l.budget = l.tailNext - l.s.hcp.SndNxt
		l.paceGap = l.s.f.Src.Rate().TxTime(netsim.MSS + netsim.HeaderBytes)
	} else {
		pkts := (i + netsim.MSS - 1) / netsim.MSS
		l.paceGap = l.rtt() / sim.Time(pkts)
	}
	l.resetDeadTimer()
	if !l.pacing {
		l.pacing = true
		l.paceOne()
	}
}

// paceOne transmits the next opportunistic packet of the initial window.
func (l *lcpLoop) paceOne() {
	if !l.active || l.s.f.SenderDone() || l.budget <= 0 {
		l.pacing = false
		return
	}
	if !l.sendOpportunistic() {
		l.pacing = false
		return
	}
	Debug.inc(&Debug.PacedPkts)
	l.budget -= netsim.MSS
	l.paceTimer = l.s.env.Sched().After(l.paceGap, l.paceFn)
}

// sendOpportunistic emits one packet from the tail end, skipping ranges
// already acknowledged via low-priority ACKs; false when the loops have
// crossed and nothing remains.
func (l *lcpLoop) sendOpportunistic() bool {
	// Stay one HCP window ahead of the high loop's frontier: HCP will
	// cover that region itself within the next round, so opportunistic
	// copies there lose the race and are pure duplication ("the window
	// summation of LCP and HCP will not exceed the MW", §3).
	hcpNext := l.s.hcp.SndNxt + int64(l.s.hcp.Cwnd)
	skip := l.s.hcp.Skip
	// Descend past already-delivered tail ranges.
	for l.tailNext > hcpNext && skip.Contains(l.tailNext-1, l.tailNext) {
		l.tailNext = skip.ContiguousBack(l.tailNext)
	}
	seq := l.tailNext - netsim.MSS
	if seq < hcpNext {
		seq = hcpNext
	}
	if cov := skip.ContiguousFrom(seq); cov > seq {
		// The packet would start inside a delivered range; trim it.
		seq = cov
	}
	if seq >= l.tailNext {
		return false // crossed: the tail is already covered
	}
	n := int32(l.tailNext - seq)
	prio := hcpPrio(l.s.cfg, l.s.f, l.s.hcp.BytesSent) + 4
	pkt := l.s.f.Src.Data(l.s.f.ID, l.s.f.Dst.ID(), seq, n, prio)
	pkt.ECT = !l.s.cfg.DisableECN
	pkt.LowLoop = true
	l.s.f.Src.Send(pkt)
	l.s.env.Eff.SentLowPayload += int64(n)
	l.oppSent += int64(n)
	l.tailNext = seq
	return true
}

// onLowAck applies the EWD receiver clocking: each low-priority ACK
// (covering two opportunistic packets) triggers exactly one new packet —
// unless it carries ECE, which suppresses it to protect HCP (§3.2).
func (l *lcpLoop) onLowAck(pkt *netsim.Packet) {
	meta, _ := pkt.Meta.(*transport.AckMeta)
	if meta != nil {
		for i := 0; i < meta.LowN; i++ {
			l.s.hcp.Skip.Add(meta.LowSeqs[i], meta.LowSeqs[i]+int64(meta.LowLens[i]))
		}
		// This sender is the meta's sole consumer: everything it carried
		// is now folded into Skip, so hand it back to the pool.
		pkt.Meta = nil
		putAckMeta(l.s.env, meta)
		// Skipping delivered bytes shrinks HCP's in-flight estimate, so
		// the high loop may be able to transmit right now.
		l.s.hcp.TrySend()
	}
	if !l.active {
		return
	}
	l.resetDeadTimer()
	if pkt.ECE && !l.s.cfg.DisableECN {
		return // congestion: do not clock out a new opportunistic packet
	}
	if l.sendOpportunistic() {
		Debug.inc(&Debug.ClockedPkts)
	}
}

func (l *lcpLoop) resetDeadTimer() {
	l.deadTimer.Stop()
	l.deadTimer = l.s.env.Sched().After(2*l.rtt(), l.termFn)
}

// terminate closes the loop after 2 RTTs of ACK silence; a future
// trigger may open a fresh one (§3.2 remarks).
func (l *lcpLoop) terminate() {
	l.active = false
	l.pacing = false
	l.budget = 0
}

// NewDualLoopReceiver exposes the PPT receiver for reuse by transports
// that embed the LCP design on a different high-priority loop (e.g. the
// delay-based variant of Fig 14).
func NewDualLoopReceiver(env *transport.Env, f *transport.Flow) netsim.Endpoint {
	return newReceiver(env, f, Config{}.withDefaults())
}

// receiver reassembles both loops' packets and generates the two ACK
// streams: per-packet high-priority cumulative ACKs for HCP and one
// low-priority ACK per two opportunistic packets for LCP.
type receiver struct {
	transport.PoolNode
	env *transport.Env
	f   *transport.Flow
	cfg Config
	r   *transport.Reassembly

	// pooled marks receivers drawn from the Env pool (see getReceiver).
	pooled bool
	// flushFn is flushPending bound once; arming with a fresh method
	// value would allocate per quiet period.
	flushFn func()

	// pending buffers the last unacknowledged opportunistic arrival.
	pendingSeq  int64
	pendingLen  int32
	pendingCE   bool
	pendingTS   sim.Time
	pendingPrio int8
	hasPending  bool
	// flushTimer acknowledges a pending arrival alone once the loop has
	// gone quiet: without it, an odd opportunistic packet count strands
	// the last arrival forever and the sender's skip set never learns
	// of the delivery.
	flushTimer sim.Timer
}

// newIdleReceiver builds an unbound receiver shell for the pool.
func newIdleReceiver() *receiver {
	rc := &receiver{r: transport.NewReassembly(0)}
	rc.flushFn = rc.flushPending
	return rc
}

// init (re)targets the receiver at a flow, clearing any pending-arrival
// state a previous flow left behind.
func (rc *receiver) init(env *transport.Env, f *transport.Flow, cfg Config) {
	rc.env, rc.f, rc.cfg = env, f, cfg
	rc.r.Reset(f.Size)
	rc.pendingSeq, rc.pendingLen, rc.pendingCE = 0, 0, false
	rc.pendingTS, rc.pendingPrio = 0, 0
	rc.hasPending = false
	rc.flushTimer = sim.Timer{}
}

func newReceiver(env *transport.Env, f *transport.Flow, cfg Config) *receiver {
	rc := newIdleReceiver()
	rc.init(env, f, cfg)
	return rc
}

// Pool keys for the per-flow objects Proto.Start draws from the Env.
var (
	senderPool   = transport.NewPoolKey("ppt.sender")
	receiverPool = transport.NewPoolKey("ppt.receiver")
	ackMetaPool  = transport.NewPoolKey("ppt.ackmeta")
)

func newAckMeta() *transport.AckMeta { return &transport.AckMeta{} }

// getAckMeta draws a low-ACK meta from the run pool. Reuse is dirty:
// every producer sets all fields. The PPT sender returns consumed metas
// via putAckMeta; foreign consumers (the MW oracle, Swift's low loop)
// never Put, which just leaves those metas to the garbage collector.
func getAckMeta(env *transport.Env) *transport.AckMeta {
	return transport.PoolFor(env, ackMetaPool, newAckMeta).Get()
}

func putAckMeta(env *transport.Env, m *transport.AckMeta) {
	transport.PoolFor(env, ackMetaPool, newAckMeta).Put(m)
}

// getSender returns an initialized sender from env's pool; it returns
// to the pool via Recycle when its flow completes.
func getSender(env *transport.Env, f *transport.Flow, cfg Config) *sender {
	s := transport.PoolFor(env, senderPool, newIdleSender).Get()
	s.init(env, f, cfg)
	s.pooled = true
	return s
}

// getReceiver is the receiver-side analogue of getSender.
func getReceiver(env *transport.Env, f *transport.Flow, cfg Config) *receiver {
	rc := transport.PoolFor(env, receiverPool, newIdleReceiver).Get()
	rc.init(env, f, cfg)
	rc.pooled = true
	return rc
}

// Recycle implements transport.EndpointRecycler: cancel the quiet-flush
// timer, then return pool-owned receivers to the freelist.
func (rc *receiver) Recycle(env *transport.Env) {
	rc.flushTimer.Stop()
	if !rc.pooled {
		return
	}
	rc.pooled = false
	rc.f = nil
	transport.PoolFor(env, receiverPool, newIdleReceiver).Put(rc)
}

// Handle implements netsim.Endpoint.
func (rc *receiver) Handle(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	added := rc.r.Add(pkt.Seq, pkt.PayloadLen)
	if pkt.LowLoop {
		Debug.add(&Debug.NewLowBytes, added)
		Debug.add(&Debug.DupLowBytes, int64(pkt.PayloadLen)-added)
		rc.env.Eff.UsefulLow += added
		rc.onOpportunistic(pkt)
	} else {
		Debug.add(&Debug.NewHighBytes, added)
		Debug.add(&Debug.DupHighBytes, int64(pkt.PayloadLen)-added)
		rc.ackHigh(pkt)
	}
	if rc.r.Complete() {
		rc.env.Complete(rc.f)
	}
}

func (rc *receiver) ackHigh(pkt *netsim.Packet) {
	ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), 0)
	ack.Seq = rc.r.CumAck()
	ack.ECE = pkt.CE
	ack.EchoTS = pkt.SentAt
	rc.f.Dst.Send(ack)
}

// onOpportunistic coalesces two opportunistic arrivals per low-priority
// ACK (the 2:1 EWD clock of §3.2). A lone arrival is held for its pair,
// but only until the quiet-flush timer fires: a loop that sent an odd
// number of packets would otherwise strand its last packet unacked and
// the sender would never skip it.
func (rc *receiver) onOpportunistic(pkt *netsim.Packet) {
	if !rc.hasPending {
		rc.pendingSeq, rc.pendingLen, rc.pendingCE = pkt.Seq, pkt.PayloadLen, pkt.CE
		rc.pendingTS, rc.pendingPrio = pkt.SentAt, pkt.Prio
		rc.hasPending = true
		rc.flushTimer.Stop()
		rc.flushTimer = rc.env.Sched().After(2*rc.env.BaseRTT(), rc.flushFn)
		return
	}
	rc.flushTimer.Stop()
	rc.flushTimer = sim.Timer{}
	meta := getAckMeta(rc.env)
	meta.LowSeqs = [2]int64{rc.pendingSeq, pkt.Seq}
	meta.LowLens = [2]int32{rc.pendingLen, pkt.PayloadLen}
	meta.LowN = 2
	meta.TailFrontier = rc.r.TailFrontier()
	rc.hasPending = false
	ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), pkt.Prio)
	ack.LowLoop = true
	ack.Seq = rc.r.CumAck()
	ack.ECE = pkt.CE || rc.pendingCE
	ack.EchoTS = pkt.SentAt
	ack.Meta = meta
	rc.f.Dst.Send(ack)
}

// flushPending acknowledges a buffered opportunistic arrival on its own
// once the loop has gone quiet for 2 base RTTs (no pair showed up). The
// single-packet ACK folds the delivered range into the sender's skip
// set, so neither loop sends it again.
func (rc *receiver) flushPending() {
	if !rc.hasPending || rc.f.Done() {
		return
	}
	meta := getAckMeta(rc.env)
	meta.LowSeqs = [2]int64{rc.pendingSeq, 0}
	meta.LowLens = [2]int32{rc.pendingLen, 0}
	meta.LowN = 1
	meta.TailFrontier = rc.r.TailFrontier()
	rc.hasPending = false
	rc.flushTimer = sim.Timer{}
	ack := rc.f.Dst.Ctrl(netsim.Ack, rc.f.ID, rc.f.Src.ID(), rc.pendingPrio)
	ack.LowLoop = true
	ack.Seq = rc.r.CumAck()
	ack.ECE = rc.pendingCE
	ack.EchoTS = rc.pendingTS
	ack.Meta = meta
	rc.f.Dst.Send(ack)
}
