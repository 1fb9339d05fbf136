package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"ppt/internal/bufaware"
	"ppt/internal/netsim"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/topo"
	"ppt/internal/transport"
	"ppt/internal/transport/dctcp"
	"ppt/internal/transport/ppt"
	"ppt/internal/workload"
)

// This file composes each workload's cells from the layers' public
// functions — the same calls, in the same order, that internal/exp's
// execute makes — and times them from outside. cells_test pins the
// composition: its Summaries are bit-identical to exp.RunByID rows.

// fabric is one network the cells run on.
type fabric struct {
	build  func(topo.Config) *topo.Network
	cfg    topo.Config
	rtoMin sim.Time
	hosts  int
}

// leafSpine is exp's simFabric(3, 2, 8): the §6.2 40/100G oversubscribed
// profile on a 24-host slice.
var leafSpine = fabric{
	build: func(cfg topo.Config) *topo.Network { return topo.LeafSpine(3, 2, 8, cfg) },
	cfg: topo.Config{
		HostRate:      40 * netsim.Gbps,
		CoreRate:      100 * netsim.Gbps,
		PerPortBuffer: 120_000,
		ECNHighK:      96_000,
		ECNLowK:       86_000,
	},
	rtoMin: 1 * sim.Millisecond,
	hosts:  24,
}

// testbedStar is exp's testbedFabric: the Table 3 CloudLab profile.
var testbedStar = fabric{
	build: func(cfg topo.Config) *topo.Network { return topo.Star(15, cfg) },
	cfg: topo.Config{
		HostRate:            10 * netsim.Gbps,
		LinkDelay:           20 * sim.Microsecond,
		SharedBuffer:        50 << 20,
		ECNHighK:            100_000,
		ECNLowK:             80_000,
		DynamicLowThreshold: true,
	},
	rtoMin: 10 * sim.Millisecond,
	hosts:  15,
}

// benchWorkload is one set of cells: ppt and dctcp on one fabric and
// flow-size distribution, at load 0.5 with Poisson (open-loop) arrivals.
type benchWorkload struct {
	name string
	why  string
	fab  fabric
	dist *workload.Dist
	// flows is each cell's flow count per round.
	flows int
	// workers is topo.Config.Shards: the windowed engine's worker cap on
	// the leaf-spine fabric (outcomes are identical at every value >= 1;
	// Star ignores it).
	workers int
	// spill > 0 streams the workload through a FlowSource and bounds the
	// FCT collector to this many resident records.
	spill int
}

// workloads are the benchmark's inputs. Flow counts size one round (both
// cells) at 1-2 s on a 2-vCPU host, so a run takes the median of many
// rounds; README.md gives the reason for each workload.
var workloads = []*benchWorkload{
	{
		name: "ws-leafspine", fab: leafSpine, dist: workload.WebSearch, flows: 400, workers: 1,
		why: "fig12 cells: websearch on the partitioned 3x2x8 leaf-spine, 1 worker; the packet-heavy legacy pipeline with cross-shard ports",
	},
	{
		name: "ws-leafspine-2w", fab: leafSpine, dist: workload.WebSearch, flows: 400, workers: 2,
		why: "the ws-leafspine cells on 2 workers: the only workload where barrier, merge and crew changes show",
	},
	{
		name: "mc-stream", fab: leafSpine, dist: workload.MemcachedW1, flows: 100_000, workers: 1, spill: 1 << 16,
		why: "scale1M cells: streamed memcached W1 with a spilling collector; per-flow lifecycle and bounded memory",
	},
	{
		name: "dm-testbed", fab: testbedStar, dist: workload.DataMining, flows: 200, workers: 1,
		why: "fig9 cells at load 0.5: data mining on the 15-host star, monolithic fused pipeline; bypasses the sharded engine",
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// schemes are the transports every workload runs, in cell order.
var schemes = []struct {
	name  string
	proto transport.Protocol
}{
	{"ppt", ppt.Proto{}},
	{"dctcp", dctcp.Proto{}},
}

// cell is one built, not yet run, simulation: a fabric, its environment
// and the flows it will release.
type cell struct {
	scheme  string
	proto   transport.Protocol
	env     *transport.Env
	flows   []transport.SimpleFlow // materialized workloads
	src     transport.FlowSource   // streamed workloads
	next    *timedSource           // src wrapped for a traced run
	offered int
	setup   time.Duration // cell start to the Run call
	topo    time.Duration // of setup, inside topo.LeafSpine or topo.Star
}

// setupCell builds one cell exactly as exp's execute does. traced wraps a
// streamed source to time every Next.
func setupCell(w *benchWorkload, scheme int, seed int64, workers int, traced bool) (*cell, error) {
	t0 := time.Now()
	c := &cell{scheme: schemes[scheme].name, proto: schemes[scheme].proto, offered: w.flows}
	cfg := w.fab.cfg
	cfg.Shards = workers
	net := w.fab.build(cfg)
	c.topo = time.Since(t0)
	c.env = transport.NewEnv(net)
	c.env.RTOMin = w.fab.rtoMin
	gen := workload.GenConfig{
		Dist:     w.dist,
		Pattern:  workload.AllToAll{N: w.fab.hosts},
		Load:     0.5,
		HostRate: cfg.HostRate,
		NumFlows: w.flows,
		Seed:     seed,
	}
	if w.spill > 0 {
		if err := c.env.Collector.SetSpill(w.spill); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.name, c.scheme, err)
		}
		c.src = &streamSource{
			gen: workload.NewGenerator(gen),
			rng: rand.New(rand.NewSource(seed + 7)),
		}
		if traced {
			c.next = &timedSource{src: c.src}
			c.src = c.next
		}
	} else {
		wf := workload.Generate(gen)
		sizes := make([]int64, len(wf))
		for i, f := range wf {
			sizes[i] = f.Size
		}
		first := bufaware.AssignFirstCalls(sizes, bufaware.Bulk, 0, seed+7)
		c.flows = make([]transport.SimpleFlow, len(wf))
		for i, f := range wf {
			c.flows[i] = transport.SimpleFlow{
				ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
				Arrive: f.Arrive, FirstCall: first[i],
			}
		}
	}
	c.setup = time.Since(t0)
	return c, nil
}

// close releases a cell's spill file; counters stay readable.
func (c *cell) close() { c.env.Collector.Close() }

// cellResult is what one run of a cell left behind: its Summary and the
// counts read from public fields afterwards.
type cellResult struct {
	scheme  string
	sum     stats.Summary
	offered int
	topo    time.Duration
	run     time.Duration // inside Run/RunSource
	next    time.Duration // inside the source's Next (traced streamed runs)

	events   uint64 // scheduler events executed
	pkts     int64  // packet hops: TxPackets over NICs and switch ports
	drops    int64
	shard    transport.ShardStats // zero on monolithic fabrics
	eff      float64              // useful bytes per payload byte sent
	resident int                  // FCT records ever resident at once
	spilled  int64                // FCT records spilled to file
}

// failed counts the cell's offered flows that did not complete (a
// truncated run always leaves some).
func (r *cellResult) failed() int { return r.offered - r.sum.Flows }

// runCell runs a built cell to completion and reads its counters.
func runCell(c *cell) cellResult {
	t0 := time.Now()
	var sum stats.Summary
	if c.src != nil {
		sum = transport.RunSource(c.env, c.proto, c.src, transport.RunConfig{})
	} else {
		sum = transport.Run(c.env, c.proto, c.flows, transport.RunConfig{})
	}
	r := cellResult{
		scheme: c.scheme, sum: sum, offered: c.offered,
		topo: c.topo, run: time.Since(t0),
	}
	c.close()
	if c.next != nil {
		r.next = c.next.d
	}
	net := c.env.Net
	r.events = net.Executed()
	for _, h := range net.Hosts {
		r.pkts += h.NIC().Stats.TxPackets
		r.drops += h.NIC().Stats.Drops
	}
	for _, p := range net.SwitchPorts() {
		r.pkts += p.Stats.TxPackets
		r.drops += p.Stats.Drops
	}
	if st := c.env.ShardStats; st != nil {
		r.shard = *st
	}
	r.eff = c.env.Eff.Overall()
	r.resident = c.env.Collector.ResidentPeak()
	r.spilled = c.env.Collector.SpilledRecords()
	return r
}

// streamSource is exp's streamSource: it assigns each generated flow its
// first-syscall size in generation order, drawing the classifier RNG
// exactly as bufaware.AssignFirstCalls does over a materialized trace.
type streamSource struct {
	gen *workload.Generator
	rng *rand.Rand
}

func (s *streamSource) Next() (transport.SimpleFlow, bool) {
	f, ok := s.gen.Next()
	if !ok {
		return transport.SimpleFlow{}, false
	}
	return transport.SimpleFlow{
		ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
		Arrive: f.Arrive, FirstCall: bufaware.Bulk.FirstCall(s.rng, f.Size, 0),
	}, true
}

// timedSource is the benchmark's span around the workload layer of a
// streamed run: it times every Next.
type timedSource struct {
	src transport.FlowSource
	d   time.Duration
}

func (s *timedSource) Next() (transport.SimpleFlow, bool) {
	t := time.Now()
	f, ok := s.src.Next()
	s.d += time.Since(t)
	return f, ok
}

// digest fingerprints a round's simulated outcomes: every cell's scheme
// and Summary, in cell order.
func digest(rs []cellResult) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, r := range rs {
		h.Write([]byte(r.scheme))
		s := r.sum
		put(int64(s.Flows))
		put(int64(s.OverallAvg))
		put(int64(s.SmallCount))
		put(int64(s.SmallAvg))
		put(int64(s.SmallP99))
		put(int64(s.LargeCount))
		put(int64(s.LargeAvg))
		put(int64(s.Unfinished))
		if s.Truncated {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
