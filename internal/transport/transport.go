// Package transport provides the framework every protocol in this
// repository is written against: flows, the run loop that releases them
// at their arrival times, byte-range reassembly, and shared accounting.
//
// A protocol is a factory that wires a sender endpoint on the source host
// and a receiver endpoint on the destination host. Completion is decided
// by the receiver (all bytes reassembled) and reported to the
// environment, which records the FCT and tears the flow down.
package transport

import (
	"fmt"
	"sort"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
)

// Flow is one transfer in flight.
type Flow struct {
	ID    uint32
	Src   *netsim.Host
	Dst   *netsim.Host
	Size  int64
	Start sim.Time

	// FirstCall is the number of bytes the application's first send()
	// syscall injected into the send buffer (set by the bufaware model;
	// defaults to Size, i.e. the whole message written at once).
	FirstCall int64

	// IdentifiedLarge is the buffer-aware classifier's verdict.
	IdentifiedLarge bool

	done bool

	// srcDone mirrors done for the sender side. Monolithic runs set both
	// together; in a windowed (sharded) run a cross-shard flow's sender
	// teardown is deferred to the next window barrier, so srcDone trails
	// done by up to one window. Sender-side code polls SenderDone.
	srcDone bool

	// crossShard marks flows whose endpoints live in different shards of
	// a partitioned fabric (always false in monolithic runs).
	crossShard bool

	// pooled marks flows owned by the run freelist (built by Run's
	// releaser); flows constructed directly by experiment code are never
	// recycled. inPool is the double-free guard.
	pooled bool
	inPool bool
}

// Env is the shared environment endpoints run in.
type Env struct {
	Net       *topo.Network
	Collector *stats.Collector
	Eff       stats.Efficiency

	// RTOMin floors every retransmission timer.
	RTOMin sim.Time

	// SendBuf models the kernel TCP send buffer in bytes (§4.1, Fig 27):
	// PPT's low loop can only transmit bytes within SendBuf of the
	// cumulative ACK. Zero means unbounded (the paper's 2GB setting).
	SendBuf int64

	// ShardStats holds the windowed engine's instrumentation after a
	// sharded run (nil for monolithic runs). Execution-side counters
	// only — they never influence simulated outcomes.
	ShardStats *ShardStats

	remaining    int
	stopWhenDone bool
	// feeding is true while the run's FlowSource may still yield flows;
	// the last completion only stops the loop once the source is dry.
	feeding bool

	// pools is the per-run endpoint pool registry (see PoolFor).
	pools map[*PoolKey]any

	// flowFree is the run-scoped Flow freelist.
	flowFree []*Flow

	// hostState is the per-host object registry (see HostState).
	hostState map[hostKey]any

	// sched is this environment's event scheduler: the fabric scheduler
	// for monolithic runs, the shard's own scheduler for the per-shard
	// environments of a windowed run. shard and run are set only on the
	// latter (see sharded.go).
	sched *sim.Scheduler
	shard int
	run   *shardedRun
}

// NewEnv builds an environment over a fabric.
func NewEnv(net *topo.Network) *Env {
	return &Env{
		Net:       net,
		Collector: stats.NewCollector(),
		RTOMin:    1 * sim.Millisecond,
		sched:     net.Sched,
	}
}

// Sched returns the environment's scheduler (the shard's own in a
// windowed run).
func (e *Env) Sched() *sim.Scheduler { return e.sched }

// Now returns the current simulated time.
func (e *Env) Now() sim.Time { return e.sched.Now() }

// BaseRTT returns the fabric's zero-load RTT.
func (e *Env) BaseRTT() sim.Time { return e.Net.BaseRTT }

// BDP returns the fabric bandwidth-delay product in bytes.
func (e *Env) BDP() int { return e.Net.BDP() }

// RTO returns the retransmission timeout to use: a small multiple of the
// base RTT, floored at RTOMin.
func (e *Env) RTO() sim.Time {
	rto := 3 * e.Net.BaseRTT
	if rto < e.RTOMin {
		rto = e.RTOMin
	}
	return rto
}

// Complete records a finished flow, unbinds its endpoints (recycling
// any that implement EndpointRecycler), and stops the run loop when the
// last tracked flow finishes. Flows drawn from the run freelist return
// to it here: once Recycle has stopped every timer the endpoints armed,
// nothing can reach the flow (DESIGN.md §7.2).
func (e *Env) Complete(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	e.Collector.Complete(f.ID, f.Size, f.Start, e.Now())
	e.Eff.UsefulDelivered += f.Size
	if f.crossShard {
		// Windowed run with the sender in another shard, which may be
		// executing this window concurrently: tear down only the receiver
		// (this shard) now, and stage the sender's unbind/recycle — and
		// the flow's return to the source freelist — for the driver to
		// apply at the next window barrier, when every shard is
		// quiescent. Until then the sender observes SenderDone() == false
		// and keeps reacting to in-flight ACKs; the barrier time is a
		// pure function of the completion time, so the gap's behaviour is
		// identical at every worker count.
		dst := f.Dst.Unbind(f.ID, true)
		if r, ok := dst.(EndpointRecycler); ok {
			r.Recycle(e)
		}
		e.run.stageTeardown(e.shard, f)
		return
	}
	f.srcDone = true
	src := f.Src.Unbind(f.ID, false)
	dst := f.Dst.Unbind(f.ID, true)
	if r, ok := src.(EndpointRecycler); ok {
		r.Recycle(e)
	}
	if r, ok := dst.(EndpointRecycler); ok {
		r.Recycle(e)
	}
	if f.pooled {
		e.putFlow(f)
	}
	if e.run != nil {
		e.run.flowDone()
		return
	}
	if e.stopWhenDone {
		e.remaining--
		if e.remaining == 0 && !e.feeding {
			e.Sched().Stop()
		}
	}
}

// getFlow draws a Flow from the run freelist (or allocates one) and
// resets the fields the releaser does not overwrite.
func (e *Env) getFlow() *Flow {
	if n := len(e.flowFree); n > 0 {
		f := e.flowFree[n-1]
		e.flowFree[n-1] = nil
		e.flowFree = e.flowFree[:n-1]
		f.inPool = false
		f.done = false
		f.srcDone = false
		f.crossShard = false
		f.IdentifiedLarge = false
		f.Start = 0
		return f
	}
	return &Flow{pooled: true}
}

// putFlow returns a released flow to the freelist. Returning the same
// flow twice panics: two owners would corrupt a later transfer.
func (e *Env) putFlow(f *Flow) {
	if f.inPool {
		panic("transport: flow double-free")
	}
	f.inPool = true
	f.Src, f.Dst = nil, nil
	e.flowFree = append(e.flowFree, f)
}

// Done reports whether the flow has completed. Only receiver-side code
// may read it; sender-side code uses SenderDone: in a windowed run, done
// is written by the receiver's shard while the sender's shard may still
// be executing.
func (f *Flow) Done() bool { return f.done }

// SenderDone reports whether the sender-side endpoint has been (or is
// being) torn down. Equal to Done in monolithic runs; in a windowed run
// it trails Done by up to one window for cross-shard flows.
func (f *Flow) SenderDone() bool { return f.srcDone }

// Protocol wires one flow's endpoints in two halves. StartReceiver
// builds and binds the receiver on the destination host; StartSender
// builds, binds and launches the sender on the source host at the
// flow's arrival time. Each half gets the Env of the shard that owns its
// host. A cross-shard flow of a windowed run starts its receiver at the
// next window barrier, on the driver thread while shards are quiescent
// (always before its first packet can arrive: the barrier is within one
// window of the arrival, the first cross-shard packet at least two
// windows out), so StartReceiver must not read the clock, schedule
// events or send packets. Every other flow starts its receiver, then
// its sender, at arrival. Sender-side code reads Flow.SenderDone, never
// Done, and per-host receiver state lives in the receiving Env
// (HostState), never in the Protocol value, which shards share.
type Protocol interface {
	Name() string
	StartReceiver(env *Env, f *Flow)
	StartSender(env *Env, f *Flow)
}

// RunConfig controls a full experiment run.
type RunConfig struct {
	// MaxEvents aborts runaway simulations; 0 means a generous default.
	MaxEvents uint64
	// Deadline bounds simulated time; 0 means unbounded.
	Deadline sim.Time
}

// SimpleFlow is a pending transfer request: endpoints by host index, a
// size, and an arrival time. Experiment code converts workload.Flow
// values into these.
type SimpleFlow struct {
	ID     uint32
	Src    int
	Dst    int
	Size   int64
	Arrive sim.Time
	// FirstCall overrides the first-syscall size for the buffer-aware
	// classifier; zero means the whole message is written at once.
	FirstCall int64
}

// FlowSource yields pending transfers lazily, one at a time, in
// nondecreasing arrival order (the releaser panics on a decreasing
// source). It is the streaming counterpart of a materialized
// []SimpleFlow: a million-flow workload pulled through a FlowSource
// costs one SimpleFlow of lookahead instead of the whole slice.
// exp's streamSource adapts a workload.Generator to it.
type FlowSource interface {
	// Next returns the next flow; ok is false once the source is
	// exhausted, and stays false on every later call.
	Next() (SimpleFlow, bool)
}

// sliceSource adapts a materialized, arrival-sorted slice to FlowSource.
type sliceSource struct {
	flows []SimpleFlow
	next  int
}

func (s *sliceSource) Next() (SimpleFlow, bool) {
	if s.next >= len(s.flows) {
		return SimpleFlow{}, false
	}
	f := s.flows[s.next]
	s.next++
	return f, true
}

// releaser is the run's rolling arrival cursor: instead of
// materializing a *Flow, a capturing closure, and a scheduler event per
// flow before the run starts, one timer pulls flows from a FlowSource
// with a single-flow lookahead and releases each batch of
// same-timestamp flows when its moment comes. Peak pre-run state drops
// from O(flows) heap objects to one event and one pending SimpleFlow,
// and the Flow structs themselves come from the Env freelist. Pulling
// never touches the scheduler, so for a materialized source the
// (time, seq) sequence of release events is identical to walking the
// slice directly.
type releaser struct {
	env   *Env
	proto Protocol
	src   FlowSource

	// pending is the one-flow lookahead: the next flow to release, if
	// havePending.
	pending     SimpleFlow
	havePending bool
	lastArrive  sim.Time

	// armed tracks whether a scheduler event exists that will call fire;
	// the windowed driver re-arms idle releasers at barriers as it feeds
	// their queues.
	armed bool

	// fireFn is fire bound once; re-arming with a fresh method value
	// would allocate per batch.
	fireFn func()
	// sharded, when non-nil, is the windowed run this releaser's shard
	// belongs to: cross-shard flows start their sender immediately and
	// stage their receiver start for the next barrier.
	sharded *shardedRun
	shard   int
}

// prime refills the lookahead from the source, enforcing nondecreasing
// arrival order.
func (rel *releaser) prime() {
	f, ok := rel.src.Next()
	if !ok {
		return
	}
	if f.Arrive < rel.lastArrive {
		panic(fmt.Sprintf("transport: FlowSource yielded decreasing arrival times (%v after %v); sources must be arrival-sorted",
			f.Arrive, rel.lastArrive))
	}
	rel.lastArrive = f.Arrive
	rel.pending = f
	rel.havePending = true
}

// fire releases every flow whose arrival time has come, then re-arms
// for the next pending arrival. Same-timestamp flows start in source
// order — exactly the (time, seq) order the per-flow events of the old
// scheme gave them.
func (rel *releaser) fire() {
	env := rel.env
	now := env.Now()
	rel.armed = false
	if !rel.havePending {
		rel.prime()
	}
	for rel.havePending && rel.pending.Arrive <= now {
		wf := rel.pending
		rel.havePending = false
		f := env.getFlow()
		f.ID = wf.ID
		f.Src = env.Net.Hosts[wf.Src]
		f.Dst = env.Net.Hosts[wf.Dst]
		f.Size = wf.Size
		f.FirstCall = wf.FirstCall
		if f.FirstCall == 0 {
			f.FirstCall = wf.Size
		}
		f.Start = now
		// A cross-shard flow's receiver starts at the next barrier in its
		// own shard; every other receiver starts just before its sender.
		if r := rel.sharded; r == nil {
			env.remaining++
		} else if r.hostShard[wf.Src] != r.hostShard[wf.Dst] {
			f.crossShard = true
			r.stageReceiverStart(rel.shard, f)
		}
		if !f.crossShard {
			rel.proto.StartReceiver(env, f)
		}
		rel.proto.StartSender(env, f)
		rel.prime()
	}
	if rel.havePending {
		env.Sched().At(rel.pending.Arrive, rel.fireFn)
		rel.armed = true
	} else if rel.sharded == nil {
		// Source dry and nothing pending: the next completion that
		// drains remaining may stop the run.
		env.feeding = false
		if env.stopWhenDone && env.remaining == 0 {
			env.Sched().Stop()
		}
	}
}

// unreleased counts the flows the releaser never started, draining the
// source; used only for truncation reporting after the run loop exits.
func (rel *releaser) unreleased() int {
	n := 0
	if rel.havePending {
		n++
		rel.havePending = false
	}
	for {
		if _, ok := rel.src.Next(); !ok {
			return n
		}
		n++
	}
}

// arrivalSorted reports whether flows are already in arrival order (the
// workload generator emits them sorted, so the common case avoids the
// copy).
func arrivalSorted(flows []SimpleFlow) bool {
	for i := 1; i < len(flows); i++ {
		if flows[i].Arrive < flows[i-1].Arrive {
			return false
		}
	}
	return true
}

// Run releases flows at their arrival times under proto and runs the
// simulation until every flow completes (or a safety bound trips). It
// returns the FCT summary. A partitioned fabric (every topo.LeafSpine)
// runs on the windowed driver, a single-scheduler one (topo.Star) on
// RunSource's own loop. Run is the materialized convenience over
// RunSource: it sorts (if needed), reserves the collector, and streams
// the slice — producing the exact event sequence walking the slice
// always has.
func Run(env *Env, proto Protocol, flows []SimpleFlow, cfg RunConfig) stats.Summary {
	if !arrivalSorted(flows) {
		flows = append([]SimpleFlow(nil), flows...)
		sort.SliceStable(flows, func(i, j int) bool { return flows[i].Arrive < flows[j].Arrive })
	}
	if env.Net.Part == nil {
		env.Collector.Reserve(len(flows))
	}
	return RunSource(env, proto, &sliceSource{flows: flows}, cfg)
}

// RunSource is Run over a lazily produced workload: flows are pulled
// from src — which must yield nondecreasing arrival times — with a
// single-flow lookahead, so a million-flow run never materializes its
// trace. Completion statistics still accumulate in env.Collector; pair
// with stats.Collector.SetSpill to bound that side too. A partitioned
// fabric (topo.LeafSpine) hands the run to the windowed driver
// (runShardedSource); a single-scheduler fabric (topo.Star) runs on the
// loop below.
func RunSource(env *Env, proto Protocol, src FlowSource, cfg RunConfig) stats.Summary {
	if env.Net.Part != nil {
		return runShardedSource(env, proto, src, cfg)
	}
	env.remaining = 0
	env.stopWhenDone = true
	env.feeding = true
	sched := env.Sched()
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 2_000_000_000
	}
	sched.Limit = sched.Executed + cfg.MaxEvents
	rel := &releaser{env: env, proto: proto, src: src}
	rel.fireFn = rel.fire
	rel.prime()
	if rel.havePending {
		sched.At(rel.pending.Arrive, rel.fireFn)
		rel.armed = true
	} else {
		env.feeding = false
	}
	deadline := sim.MaxTime
	if cfg.Deadline != 0 {
		deadline = cfg.Deadline
	}
	sched.RunUntil(deadline)
	env.feeding = false
	// Settle the ports before reading Tx counters: owed departures start
	// and every serialization that physically completed within the run
	// counts exactly once (DESIGN.md §7.6). On a deadline truncation the
	// clock may lag the deadline — the pipeline has no serialize-complete
	// events to execute — so the settle horizon is the deadline itself
	// (unless the event budget tripped first, where the executed clock is
	// all the run can vouch for).
	lim := sched.Now()
	if deadline != sim.MaxTime && env.remaining > 0 && sched.Executed < sched.Limit {
		lim = deadline
	}
	env.Net.SettleTx(func(*sim.Scheduler) sim.Time { return lim })
	// Account host-NIC payload counters into the efficiency summary.
	for _, h := range env.Net.Hosts {
		env.Eff.SentPayload += h.NIC().Stats.TxDataBytes
	}
	sum := env.Collector.Summarize()
	if unfinished := env.remaining + rel.unreleased(); unfinished > 0 {
		// MaxEvents or Deadline tripped before every flow finished: the
		// summary covers only the flows that made it, which silently biases
		// FCT statistics toward the fast ones. Flag it so callers can warn.
		// Unfinished counts released-but-incomplete flows and everything
		// the source still held.
		sum.Truncated = true
		sum.Unfinished = unfinished
	}
	return sum
}

// Reassembly is the receiver-side byte accounting shared by every
// protocol: an interval set over [0, Size).
type Reassembly struct {
	Size int64
	set  IntervalSet
}

// NewReassembly tracks a flow of the given size.
func NewReassembly(size int64) *Reassembly { return &Reassembly{Size: size} }

// Reset re-targets a recycled Reassembly at a new flow, keeping the
// interval set's backing array so steady-state reuse does not allocate.
func (r *Reassembly) Reset(size int64) {
	r.Size = size
	r.set.Reset()
}

// Add records payload [seq, seq+n) and returns the newly covered bytes.
func (r *Reassembly) Add(seq int64, n int32) int64 {
	end := seq + int64(n)
	if end > r.Size {
		end = r.Size
	}
	return r.set.Add(seq, end)
}

// Complete reports whether all bytes have arrived.
func (r *Reassembly) Complete() bool { return r.set.Total() >= r.Size }

// CumAck returns the contiguous prefix length — the TCP cumulative ACK.
func (r *Reassembly) CumAck() int64 { return r.set.ContiguousFrom(0) }

// TailFrontier returns the start of the contiguous suffix reaching Size
// (== Size when no suffix has arrived).
func (r *Reassembly) TailFrontier() int64 { return r.set.ContiguousBack(r.Size) }

// Received returns total distinct bytes received.
func (r *Reassembly) Received() int64 { return r.set.Total() }

// FirstMissing returns the first uncovered byte offset (== Size when
// complete).
func (r *Reassembly) FirstMissing() int64 { return r.set.NextGap(0, r.Size) }

// NextCovered returns the first received byte at or after a, or limit
// when nothing below limit has arrived — the end of the gap starting at
// a.
func (r *Reassembly) NextCovered(a, limit int64) int64 {
	return r.set.FirstCoveredIn(a, limit)
}

// ContiguousFrom returns the end of the received run starting at a
// (== a when byte a has not arrived).
func (r *Reassembly) ContiguousFrom(a int64) int64 { return r.set.ContiguousFrom(a) }

// MaxCovered returns the highest received offset + 1 (0 when nothing has
// arrived). On an in-order fabric, every gap below this frontier is a
// definite loss.
func (r *Reassembly) MaxCovered() int64 { return r.set.Max() }

// String aids debugging.
func (r *Reassembly) String() string {
	return fmt.Sprintf("reasm %d/%d cum=%d tail=%d", r.set.Total(), r.Size, r.CumAck(), r.TailFrontier())
}
