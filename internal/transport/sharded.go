package transport

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
)

// This file is the conservative time-windowed parallel run driver
// (YAWNS / bounded-lag; see DESIGN.md §7.3/§7.5). A partitioned fabric
// (topo.Config.Shards >= 1) assigns every device to one of N logical
// shards, each with its own scheduler, packet pool, and — built here —
// its own Env (collector, efficiency counters, endpoint pools, flow
// freelist, release cursor).
//
// Shards advance in rounds bounded by the per-shard-pair lookahead
// matrix L (topo.Partition.Lookahead): in each round, shard d may
// execute every event strictly before its horizon
//
//	h_d = min over shards s of (eff_s + L[s][d])
//
// where eff_s is a lower bound on the next instant shard s could emit
// anything (its earliest pending event, the next unreleased arrival,
// the earliest departure one of its cross ports owes, or its
// already-executed floor, whichever binds). The min ranges over
// s = d too: L[d][d] is the minimum cycle delay through another shard,
// bounding how far d may run before its own transmissions can reflect
// back. Every cross-shard effect is applied at the round barrier in a
// canonical order:
//
//  1. cross-shard packets: every cross wire's departures of the window
//     are published to its destination shard, which delivers them in
//     (due, srcShard, FIFO) order (netsim.MergeWindows);
//  2. receiver starts for flows released this round whose destination
//     is another shard, in source-shard index order;
//  3. sender teardowns for cross-shard flows completed this round, in
//     completing-shard index order: srcDone is set, the sender is
//     unbound and recycled (which stops its timers), and the flow
//     returns to the source shard's freelist;
//  4. global stop / event-budget / deadline checks.
//
// The logical partition and the matrix are fixed by the topology;
// Config.Shards only caps how many goroutines execute the shards each
// round: the driver itself plus Workers−1 helpers, which claim the
// round's runnable shards one by one (crew, below). Because shards
// interact exclusively through the barrier steps above and every
// horizon is computed from shard-local state, the worker count and
// claim order are invisible to simulated outcomes: -shards=1, 2 and 4 are
// byte-identical by construction. Every topo.LeafSpine fabric runs
// here, whatever the transport; only star fabrics run RunSource's
// single-scheduler loop, so no cell meets both drivers. They would
// differ in two documented ways: the teardown deferral, and
// same-instant cross-shard ties, which the inbox delivers in (due,
// srcShard, FIFO) order where a single scheduler keeps global insertion
// order (see TestCrossShardTieOrder). DESIGN.md §7.5 records why
// RunSource stays a driver of its own rather than the one-shard case of
// this one.

// ShardStats is the windowed engine's per-run instrumentation,
// surfaced through Env.ShardStats into exp results and -benchjson
// extras (never into rendered tables or CSV — golden outputs stay
// engine-agnostic). All counts are execution-side observations; they
// never feed back into simulated outcomes.
type ShardStats struct {
	// Shards and Workers echo the partition shape of the run.
	Shards  int `json:",omitempty"`
	Workers int `json:",omitempty"`
	// Rounds counts barrier synchronizations (window rounds).
	Rounds uint64 `json:",omitempty"`
	// WindowsRun / WindowsSkipped count per-shard window executions:
	// a shard with no event and no owed cross departure inside its
	// horizon skips the round without touching its scheduler.
	WindowsRun     uint64 `json:",omitempty"`
	WindowsSkipped uint64 `json:",omitempty"`
	// CrossPackets counts cross-shard packets published at barriers.
	CrossPackets uint64 `json:",omitempty"`
	// RunNs is driver wall-clock spent executing shard windows;
	// BarrierNs is driver wall-clock spent in barrier work (merge,
	// receiver starts, teardowns, stop checks). Their ratio is the
	// engine's synchronization overhead.
	RunNs     int64 `json:",omitempty"`
	BarrierNs int64 `json:",omitempty"`
	// ShardEvents[i] is the number of scheduler events shard i executed
	// over the run. Event shares (ShardEvents[i] over the total) measure
	// load imbalance deterministically; wall-clock busy spans were
	// meaningless on time-shared CPUs (every shard of a 1-CPU container
	// reported an identical fraction).
	ShardEvents []uint64 `json:",omitempty"`
}

// Merge folds another run's counters into s (element-wise for
// ShardEvents, extending as needed). Used by exp to aggregate across
// cells.
func (s *ShardStats) Merge(o *ShardStats) {
	if o == nil {
		return
	}
	if o.Shards > s.Shards {
		s.Shards = o.Shards
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Rounds += o.Rounds
	s.WindowsRun += o.WindowsRun
	s.WindowsSkipped += o.WindowsSkipped
	s.CrossPackets += o.CrossPackets
	s.RunNs += o.RunNs
	s.BarrierNs += o.BarrierNs
	for len(s.ShardEvents) < len(o.ShardEvents) {
		s.ShardEvents = append(s.ShardEvents, 0)
	}
	for i, v := range o.ShardEvents {
		s.ShardEvents[i] += v
	}
}

// BarrierFrac is the fraction of engine wall-clock spent at barriers.
func (s *ShardStats) BarrierFrac() float64 {
	total := s.RunNs + s.BarrierNs
	if total <= 0 {
		return 0
	}
	return float64(s.BarrierNs) / float64(total)
}

// EventShareBounds returns the smallest and largest per-shard share of
// executed events. A wide spread means the partition is load-imbalanced
// (one shard does most of the simulating while the rest idle at
// barriers); unlike wall-clock spans, shares are deterministic and
// meaningful on any machine.
func (s *ShardStats) EventShareBounds() (lo, hi float64) {
	if len(s.ShardEvents) == 0 {
		return 0, 0
	}
	var total uint64
	for _, v := range s.ShardEvents {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	lo = float64(s.ShardEvents[0]) / float64(total)
	hi = lo
	for _, v := range s.ShardEvents[1:] {
		f := float64(v) / float64(total)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

// shardedRun is the shared state of one windowed run.
type shardedRun struct {
	proto     Protocol
	envs      []*Env
	hostShard []int

	// remaining counts unfinished flows; decremented (atomically — the
	// only cross-shard write during a window) as completions happen,
	// checked by the driver at barriers.
	remaining atomic.Int64

	// recv stages cross-shard receiver starts, indexed by the source
	// (releasing) shard so each slice has a single writer per window.
	recv [][]*Flow
	// tear stages cross-shard sender teardowns, indexed by the
	// completing (receiver) shard — again a single writer per window.
	tear [][]*Flow
}

func (r *shardedRun) flowDone() { r.remaining.Add(-1) }

// stageReceiverStart records a cross-shard flow released in shard this
// window; the driver binds its receiver at the next barrier.
func (r *shardedRun) stageReceiverStart(shard int, f *Flow) {
	r.recv[shard] = append(r.recv[shard], f)
}

// stageTeardown records a cross-shard flow completed in shard (the
// receiver side) this window; the driver unbinds and recycles the
// sender at the next barrier.
func (r *shardedRun) stageTeardown(shard int, f *Flow) {
	r.tear[shard] = append(r.tear[shard], f)
	r.flowDone()
}

// applyReceiverStarts binds staged receivers in their destination
// shards. Runs on the driver thread at a barrier: every shard is
// quiescent, and iterating source shards in index order (entries within
// a slice are in release order) makes the per-destination-pool
// allocation order a pure function of the workload.
func (r *shardedRun) applyReceiverStarts() {
	for i := range r.recv {
		staged := r.recv[i]
		if len(staged) == 0 {
			continue
		}
		for j, f := range staged {
			r.proto.StartReceiver(r.envs[r.hostShard[f.Dst.ID()]], f)
			staged[j] = nil
		}
		r.recv[i] = staged[:0]
	}
}

// applyTeardowns tears down every sender staged this round: it sets
// srcDone, unbinds the endpoint from the source NIC, recycles it (which
// stops its timers) and returns a pooled flow to the source shard's
// freelist. Runs on the driver thread at a barrier, iterating
// completing shards in index order (entries within a slice are in
// completion order), so the order in which each source shard's pools
// receive the structs is a pure function of the workload.
func (r *shardedRun) applyTeardowns() {
	for i := range r.tear {
		staged := r.tear[i]
		if len(staged) == 0 {
			continue
		}
		for j, f := range staged {
			f.srcDone = true
			se := r.envs[r.hostShard[f.Src.ID()]]
			if rec, ok := f.Src.Unbind(f.ID, false).(EndpointRecycler); ok {
				rec.Recycle(se)
			}
			if f.pooled {
				se.putFlow(f)
			}
			staged[j] = nil
		}
		r.tear[i] = staged[:0]
	}
}

// shardIdle marks a shard with nothing to do inside its horizon this
// round: the crew skips it entirely (no RunUntil, no clock churn).
const shardIdle = sim.Time(-1)

// runWindow executes shard i's window: every event through runTo, then
// every departure its cross ports owe by then, which no event stands
// for (DESIGN.md §7.6). A window cut short by the event Limit decides
// nothing past the executed point.
func runWindow(part *topo.Partition, i int, runTo sim.Time) {
	s := part.Scheds[i]
	s.RunUntil(runTo)
	if s.Limit != 0 && s.Executed >= s.Limit {
		runTo = s.Now()
	}
	part.Outboxes[i].Advance(runTo)
}

// Idle helpers poll for the next round, yielding the processor every
// spinYield polls so that sibling goroutines keep their CPU (a poll that
// never yielded made `go test ./internal/exp` take 43% longer), and park
// after spinBudget without one. The budget outlasts a round's barrier
// work, so in a busy run helpers seldom park.
const (
	spinYield  = 64
	spinBudget = 50 * time.Microsecond
)

// crew runs each round's shards on the driver goroutine and workers−1
// helper goroutines (DESIGN.md §7.5). No shard belongs to a worker:
// every participant claims runnable shards one by one, so a parked,
// late or descheduled helper costs only the parallelism it would have
// added, and no goroutine ever waits for one that has not started.
//
// A round is one epoch. claimed[i] is the last epoch in which shard i
// was claimed; a participant in round e claims it with
// CompareAndSwap(e−1, e), so a straggler still in round e−1 can claim
// nothing in round e. The driver writes runTo and marks idle shards
// claimed before it stores the epoch, and a participant reads them only
// after loading it; a runner decrements left after writing its shard's
// state, and the driver reads that state only after left reaches zero.
type crew struct {
	work    func(i int, runTo sim.Time)
	runTo   []sim.Time
	workers int
	claimed []atomic.Uint64
	epoch   atomic.Uint64
	left    atomic.Int64 // runnable shards of the round not yet finished
	quit    atomic.Bool
	helpers []helper
	exited  sync.WaitGroup
}

type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// newCrew starts workers−1 helpers. work runs one shard's window
// (runWindow in production); runTo is the driver's per-shard deadline
// array, shardIdle for a shard that skips the round.
func newCrew(workers int, runTo []sim.Time, work func(i int, runTo sim.Time)) *crew {
	c := &crew{
		work:    work,
		runTo:   runTo,
		workers: workers,
		claimed: make([]atomic.Uint64, len(runTo)),
		helpers: make([]helper, workers-1),
	}
	c.exited.Add(len(c.helpers))
	for k := range c.helpers {
		c.helpers[k].wake = make(chan struct{}, 1)
		go c.help(k + 1)
	}
	return c
}

// round runs every shard whose runTo is not shardIdle and returns once
// all of them have finished. Driver goroutine only.
func (c *crew) round() {
	e := c.epoch.Load() + 1
	runnable := 0
	for i, rt := range c.runTo {
		if rt == shardIdle {
			c.claimed[i].Store(e)
		} else {
			runnable++
		}
	}
	c.left.Store(int64(runnable))
	c.epoch.Store(e)
	for k := range c.helpers {
		if h := &c.helpers[k]; h.parked.Load() {
			h.nudge()
		}
	}
	c.claim(0, e)
	// Every shard still out was claimed by a participant running it.
	for n := 1; c.left.Load() != 0; n++ {
		if n%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// claim walks the shards from worker w's starting point, so each worker
// tends to keep the same shards from round to round, and runs every
// shard it wins in round e.
func (c *crew) claim(w int, e uint64) {
	n := len(c.claimed)
	i := w * n / c.workers
	for range n {
		if c.claimed[i].Load() == e-1 && c.claimed[i].CompareAndSwap(e-1, e) {
			c.work(i, c.runTo[i])
			c.left.Add(-1)
		}
		if i++; i == n {
			i = 0
		}
	}
}

func (c *crew) help(w int) {
	defer c.exited.Done()
	h := &c.helpers[w-1]
	var seen uint64
	for {
		seen = c.await(h, seen)
		if c.quit.Load() {
			return
		}
		c.claim(w, seen)
	}
}

// await returns the first epoch after seen: it polls for spinBudget,
// then parks until the driver wakes it. The parked flag is set before
// the last poll and the driver reads it after storing the epoch, so
// either that poll sees the new round or the driver sees the flag.
func (c *crew) await(h *helper, seen uint64) uint64 {
	deadline := time.Now().Add(spinBudget)
	for n := 1; ; n++ {
		if e := c.epoch.Load(); e != seen {
			return e
		}
		if n%spinYield != 0 {
			continue
		}
		runtime.Gosched()
		if time.Now().Before(deadline) {
			continue
		}
		h.parked.Store(true)
		if e := c.epoch.Load(); e != seen {
			h.parked.Store(false)
			return e
		}
		<-h.wake // a stale token only costs one more spin
		h.parked.Store(false)
		deadline = time.Now().Add(spinBudget)
	}
}

// nudge leaves a wake token for h without ever blocking the sender.
func (h *helper) nudge() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// stop ends the crew and returns once every helper has exited.
func (c *crew) stop() {
	c.quit.Store(true)
	c.epoch.Add(1)
	for k := range c.helpers {
		c.helpers[k].nudge()
	}
	c.exited.Wait()
}

// shardQueue is one shard's pending-release buffer: the driver pushes
// flows destined for the shard's releaser at barriers, the releaser
// pulls them (through the FlowSource interface) while executing a
// window. The two never run concurrently — barriers are quiescent — so
// no locking. Drained prefixes are compacted away so steady-state
// memory is one lookahead window's worth of flows, not the whole trace.
type shardQueue struct {
	flows []SimpleFlow
	next  int
}

func (q *shardQueue) Next() (SimpleFlow, bool) {
	if q.next >= len(q.flows) {
		q.flows = q.flows[:0]
		q.next = 0
		return SimpleFlow{}, false
	}
	f := q.flows[q.next]
	q.next++
	return f, true
}

func (q *shardQueue) push(f SimpleFlow) {
	if q.next > 4096 && q.next*2 >= len(q.flows) {
		m := copy(q.flows, q.flows[q.next:])
		q.flows = q.flows[:m]
		q.next = 0
	}
	q.flows = append(q.flows, f)
}

func (q *shardQueue) pending() int { return len(q.flows) - q.next }

// runShardedSource is RunSource's windowed twin for partitioned
// fabrics. The single arrival-ordered source is demultiplexed at round
// barriers: before each round the driver pulls every flow arriving
// inside the round's furthest horizon, pushes each onto its source
// shard's queue, and arms any idle releaser. The one-flow lookahead
// into the stream (srcNext.Arrive) participates in every shard's eff
// bound, so horizons never outrun an unreleased arrival: a flow is
// always fed to its shard at a barrier that precedes its release time.
func runShardedSource(env *Env, proto Protocol, src FlowSource, cfg RunConfig) stats.Summary {
	part := env.Net.Part
	n := part.N
	la := part.Lookahead
	if m := la.Min(); m <= 0 && m != sim.MaxTime {
		panic("transport: partitioned fabric with a non-positive lookahead entry")
	}
	run := &shardedRun{
		proto:     proto,
		hostShard: part.HostShard,
		recv:      make([][]*Flow, n),
		tear:      make([][]*Flow, n),
	}
	run.envs = make([]*Env, n)
	for i := range run.envs {
		run.envs[i] = &Env{
			Net:       env.Net,
			Collector: stats.NewCollector(),
			RTOMin:    env.RTOMin,
			SendBuf:   env.SendBuf,
			sched:     part.Scheds[i],
			shard:     i,
			run:       run,
		}
	}

	queues := make([]*shardQueue, n)
	rels := make([]*releaser, n)
	for i := range queues {
		queues[i] = &shardQueue{}
		rel := &releaser{env: run.envs[i], proto: proto, src: queues[i], sharded: run, shard: i}
		rel.fireFn = rel.fire
		rels[i] = rel
	}

	collectors := make([]*stats.Collector, n)
	for i, se := range run.envs {
		collectors[i] = se.Collector
	}
	// Per-shard completions fold into the caller's collector at every
	// barrier, in the canonical order MergeCanonical would give them, so
	// a spilling collector keeps its resident records bounded by its
	// chunk (stats.WindowFold; DESIGN.md §7.7).
	fold := stats.NewWindowFold(env.Collector)

	// srcNext is the driver's one-flow lookahead into the global stream.
	var srcNext SimpleFlow
	srcHave := false
	var lastArrive sim.Time
	pull := func() {
		f, ok := src.Next()
		if !ok {
			srcHave = false
			return
		}
		if f.Arrive < lastArrive {
			panic(fmt.Sprintf("transport: FlowSource yielded decreasing arrival times (%v after %v); sources must be arrival-sorted",
				f.Arrive, lastArrive))
		}
		lastArrive = f.Arrive
		srcNext, srcHave = f, true
	}
	pull()
	// feed routes every flow arriving by horizon to its source shard's
	// queue (counting it as outstanding) and arms idle releasers. Runs
	// on the driver thread while every shard is quiescent.
	feed := func(horizon sim.Time) {
		for srcHave && srcNext.Arrive <= horizon {
			queues[part.HostShard[srcNext.Src]].push(srcNext)
			run.remaining.Add(1)
			pull()
		}
		for _, rel := range rels {
			if !rel.armed {
				if !rel.havePending {
					rel.prime()
				}
				if rel.havePending {
					rel.env.sched.At(rel.pending.Arrive, rel.fireFn)
					rel.armed = true
				}
			}
		}
	}

	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 2_000_000_000
	}
	budget := env.Net.Executed() + cfg.MaxEvents
	startExec := make([]uint64, n)
	for i, s := range part.Scheds {
		// Per-shard runaway backstop; the canonical budget check happens
		// at barriers over the summed count.
		s.Limit = s.Executed + cfg.MaxEvents
		startExec[i] = s.Executed
	}
	deadline := sim.MaxTime
	if cfg.Deadline != 0 {
		deadline = cfg.Deadline
	}

	st := &ShardStats{Shards: n, Workers: part.Workers, ShardEvents: make([]uint64, n)}
	floors := make([]sim.Time, n)   // every event < floors[d] is executed
	owed := make([]sim.Time, n)     // earliest departure a cross port owes
	effs := make([]sim.Time, n)     // earliest possible next emission per shard
	horizons := make([]sim.Time, n) // h_d for the current round
	runTo := make([]sim.Time, n)    // per-shard deadline, shardIdle to skip
	settleTo := make([]sim.Time, n) // furthest horizon each shard ever ran to
	var workerPool *crew
	if part.Workers > 1 {
		workerPool = newCrew(part.Workers, runTo, func(i int, rt sim.Time) { runWindow(part, i, rt) })
		defer workerPool.stop()
	}

	// The round loop. Each iteration computes per-shard horizons from
	// the lookahead matrix, executes every shard (in parallel) up to
	// its own horizon, then applies cross-shard effects at the barrier.
	// Horizons are a pure function of shard-local scheduler state and
	// the stream lookahead, so the loop's entire trajectory — barrier
	// instants included — is identical for every worker count and both
	// queue implementations (NextAtBound is exact on each).
	for {
		// eff_s: shard s cannot emit anything (packet, release, or
		// derived event) before this instant. Its earliest pending
		// event, the earliest departure its cross ports owe and the next
		// unreleased arrival all bound it from below; its floor keeps it
		// monotonic when the shard is ahead.
		srcArr := sim.MaxTime
		if srcHave {
			srcArr = srcNext.Arrive
		}
		idle := true
		for i, s := range part.Scheds {
			next := srcArr
			if at, ok := s.NextAtBound(); ok && at < next {
				next = at
			}
			owed[i] = part.Outboxes[i].NextDeparture()
			if owed[i] < next {
				next = owed[i]
			}
			if next != sim.MaxTime {
				idle = false
				if f := floors[i]; next < f {
					next = f
				}
			}
			effs[i] = next
		}
		if idle {
			// Drained with flows outstanding: a protocol stall; report
			// truncation below just like the monolithic path.
			break
		}
		// h_d = min_s (eff_s + L[s][d]), including s = d via the cycle
		// entry. Floors keep horizons monotonic; the deadline caps the
		// executable range but not the floor (a capped shard resumes
		// from deadline+1 next round, and the loop exits once every
		// shard has reached the deadline).
		maxRun := sim.Time(0)
		minRun := sim.MaxTime
		for d := 0; d < n; d++ {
			h := sim.MaxTime
			for s := 0; s < n; s++ {
				if v := satAddTime(effs[s], la.At(s, d)); v < h {
					h = v
				}
			}
			if f := floors[d]; h < f {
				h = f
			}
			horizons[d] = h
			rt := h - 1
			if rt > deadline {
				rt = deadline
			}
			runTo[d] = rt
			if rt > settleTo[d] {
				settleTo[d] = rt
			}
			if rt > maxRun {
				maxRun = rt
			}
			if rt < minRun {
				minRun = rt
			}
		}
		// Feed every arrival inside the furthest horizon before any
		// shard executes; arrivals beyond a shard's own horizon just
		// sit armed until a later round.
		feed(maxRun)
		// A shard with no event and no owed departure inside its
		// horizon skips the round.
		for i, s := range part.Scheds {
			at, ok := s.NextAtBound()
			if (!ok || at > runTo[i]) && owed[i] > runTo[i] {
				runTo[i] = shardIdle
				st.WindowsSkipped++
				continue
			}
			st.WindowsRun++
		}
		t0 := time.Now()
		if workerPool == nil {
			for i, rt := range runTo {
				if rt != shardIdle {
					runWindow(part, i, rt)
				}
			}
		} else {
			workerPool.round()
		}
		t1 := time.Now()
		// Barrier: every shard quiescent, driver thread only.
		st.CrossPackets += uint64(netsim.MergeWindows(part.Inboxes))
		run.applyReceiverStarts()
		run.applyTeardowns()
		for d := 0; d < n; d++ {
			if h := horizons[d]; h > deadline {
				floors[d] = deadline + 1
			} else {
				floors[d] = h
			}
		}
		// Everything before the smallest new floor is final: future
		// completions in shard d happen at or after floors[d].
		fold.Fold(slices.Min(floors), collectors)
		st.Rounds++
		st.RunNs += t1.Sub(t0).Nanoseconds()
		st.BarrierNs += time.Since(t1).Nanoseconds()
		if run.remaining.Load() <= 0 && !srcHave {
			break
		}
		if env.Net.Executed() >= budget {
			break
		}
		if minRun >= deadline {
			break
		}
	}
	for i, s := range part.Scheds {
		st.ShardEvents[i] = s.Executed - startExec[i]
	}
	env.ShardStats = st

	// Settle the ports (DESIGN.md §7.6): each shard's ports start the
	// departures owed by, and count every serialization physically
	// complete by, the furthest horizon that shard ever ran to.
	limOf := make(map[*sim.Scheduler]sim.Time, n)
	for i, s := range part.Scheds {
		limOf[s] = settleTo[i]
	}
	env.Net.SettleTx(func(s *sim.Scheduler) sim.Time { return limOf[s] })

	// Merge per-shard results into the caller's env in canonical order.
	for _, se := range run.envs {
		env.Eff.Add(se.Eff)
		se.run = nil
	}
	fold.FoldAll(collectors)
	for _, h := range env.Net.Hosts {
		env.Eff.SentPayload += h.NIC().Stats.TxDataBytes
	}
	sum := env.Collector.Summarize()
	// Unfinished counts released-or-queued flows that never completed
	// plus everything still in the stream.
	left := int(run.remaining.Load())
	if srcHave {
		left++
		srcHave = false
	}
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		left++
	}
	if left > 0 {
		sum.Truncated = true
		sum.Unfinished = left
	}
	return sum
}

// satAddTime adds two times, saturating at sim.MaxTime (an idle shard's
// eff is MaxTime; adding a lookahead entry must not wrap).
func satAddTime(a, b sim.Time) sim.Time {
	if a == sim.MaxTime || b == sim.MaxTime || a > sim.MaxTime-b {
		return sim.MaxTime
	}
	return a + b
}
