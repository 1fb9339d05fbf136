package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// A run measures one workload in this process. An untimed warm-up round
// grows the heap and fills caches; then timed rounds — every cell of
// the workload once — run back to back until the time budget is spent,
// each preceded by a few set-up-only repetitions, so set-up is sampled
// across the whole run.
//
// Round i draws its flows from its own seed, derived from the run's. The
// flow-size distributions are heavy-tailed, so one draw of a few hundred
// flows has a cost per packet hop of its own (±15% between draws on
// dm-testbed, where shared-buffer work grows with how many flows
// overlap). The median over a dozen rounds averages a dozen draws and
// ignores rounds slowed by the host.
//
// The warm-up runs round 0's flows on one worker and round 0 must give
// its Summary digest, so on a 2-worker workload this checks that the
// windowed engine's outcomes do not depend on the worker count. A traced
// run follows each plain round with a profiled one on the same flows,
// so it checks that profiling leaves outcomes unchanged and measures
// its overhead pair by pair.

const (
	// minRounds is the fewest timed rounds (traced: pairs) a run makes
	// whatever its budget. The run's digest and per-layer counts cover
	// its first minRounds rounds, so they do not depend on the budget.
	minRounds = 4
	// setupsPerRound is how many times a timed run builds a round's cells
	// without running them before the round. Set-up takes about a
	// millisecond, so setup_s is the median of many.
	setupsPerRound = 5
)

// roundSeed is the workload seed of round i in a run seeded with seed.
func roundSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// round is one pass over a workload's cells.
type round struct {
	index  int // i of roundSeed
	cells  []cellResult
	traced bool
	// Peak resident set in MB and allocation deltas over the round (read
	// on plain rounds only; the profiler allocates on traced ones).
	rss                float64
	allocs, allocBytes uint64
	gcs                uint32
}

// sum adds f over the round's cells.
func (r *round) sum(f func(*cellResult) float64) float64 {
	t := 0.0
	for i := range r.cells {
		t += f(&r.cells[i])
	}
	return t
}

// runInfo is what a run reports besides its metrics.
type runInfo struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Trace        int      `json:"trace"`
	Rounds       int      `json:"rounds"`
	TracedRounds int      `json:"traced_rounds"`
	Digest       string   `json:"digest"`
	Machine      machine  `json:"machine"`
	Problems     []string `json:"problems,omitempty"`
}

// runRound builds and runs every cell of w once, in scheme order. A
// traced round labels each cell's profile samples with its scheme.
func runRound(w *benchWorkload, seed int64, workers int, traced bool) ([]cellResult, error) {
	out := make([]cellResult, 0, len(schemes))
	for i, sc := range schemes {
		var c *cell
		var err error
		body := func(context.Context) {
			if c, err = setupCell(w, i, seed, workers, traced); err == nil {
				out = append(out, runCell(c))
			}
		}
		if traced {
			pprof.Do(context.Background(), pprof.Labels("cell", sc.name), body)
		} else {
			body(context.Background())
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timeSetups appends n set-up times of w's cells (summed over the cells)
// to xs, in seconds; each repetition starts from a collected heap.
func timeSetups(w *benchWorkload, seed int64, n int, xs []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		var d time.Duration
		for sc := range schemes {
			c, err := setupCell(w, sc, seed, w.workers, false)
			if err != nil {
				return xs, err
			}
			d += c.setup
			c.close()
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// measure performs one run of w and returns its result line.
func measure(w *benchWorkload, seed int64, budget time.Duration, trace bool) (result, runInfo, error) {
	start := time.Now()
	info := runInfo{Workload: w.name, Seed: seed, Machine: probeMachine()}
	if trace {
		info.Trace = 1
	}
	res := result{Correct: true}
	check := func(cells []cellResult, what string) {
		for i := range cells {
			c := &cells[i]
			res.Attempted += c.offered
			if n := c.failed(); n > 0 {
				res.Failed += n
				info.Problems = append(info.Problems, fmt.Sprintf("%s: %s cell completed %d of %d flows (truncated=%v)",
					what, c.scheme, c.sum.Flows, c.offered, c.sum.Truncated))
			}
		}
	}

	warm, err := runRound(w, roundSeed(seed, 0), 1, false)
	if err != nil {
		return result{}, info, err
	}
	check(warm, "warm-up round")

	// A traced run follows each plain round with a traced one.
	kinds := []bool{false}
	if trace {
		kinds = append(kinds, true)
	}
	var setups []float64
	attr := newAttribution()
	var rounds []round
	var last time.Duration
	for i := 0; i < minRounds || time.Since(start)+last <= budget; i++ {
		s := roundSeed(seed, i)
		t := time.Now()
		if !trace {
			if setups, err = timeSetups(w, s, setupsPerRound, setups); err != nil {
				return result{}, info, err
			}
		}
		for _, traced := range kinds {
			r, err := doRound(w, s, traced, attr)
			if err != nil {
				return result{}, info, err
			}
			r.index = i
			rounds = append(rounds, r)
		}
		last = time.Since(t)
	}

	// Each round's digest must equal that of the first round on the same
	// flows: the 1-worker warm-up for round 0, the plain round for a
	// traced one.
	ref := map[int]string{0: digest(warm)}
	refName := map[int]string{0: "the 1-worker warm-up round's"}
	var first []string
	for _, r := range rounds {
		what := fmt.Sprintf("round %d (seed %d, %d workers)", r.index, roundSeed(seed, r.index), w.workers)
		if r.traced {
			what = "traced " + what
			info.TracedRounds++
		}
		check(r.cells, what)
		d := digest(r.cells)
		if want, ok := ref[r.index]; !ok {
			ref[r.index], refName[r.index] = d, "the plain round's"
		} else if d != want {
			info.Problems = append(info.Problems, fmt.Sprintf("%s: digest %s differs from %s %s", what, d, refName[r.index], want))
		}
		if !r.traced && r.index < minRounds {
			first = append(first, d)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(first, ",")))
	info.Digest = fmt.Sprintf("%016x", h.Sum64())
	info.Rounds = len(rounds)
	res.Correct = len(info.Problems) == 0
	if trace {
		res.Metrics = layerMetrics(rounds, attr)
	} else {
		res.Metrics = endToEndMetrics(rounds, setups)
	}
	return res, info, nil
}

// doRound runs one round, under the CPU profiler when traced.
func doRound(w *benchWorkload, seed int64, traced bool, attr *attribution) (round, error) {
	r := round{traced: traced}
	// Collect and return freed memory to the OS, so every round starts
	// from the same heap and its resident peak is its own.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	var rss *rssWatch
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start CPU profile: %w", err)
		}
	} else {
		runtime.ReadMemStats(&m0)
		rss = watchRSS()
	}
	cells, err := runRound(w, seed, w.workers, traced)
	if traced {
		pprof.StopCPUProfile()
	} else {
		r.rss = rss.Stop()
		runtime.ReadMemStats(&m1)
	}
	if err != nil {
		return r, err
	}
	r.cells = cells
	if traced {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return r, err
		}
		attr.add(p)
	} else {
		r.allocs = m1.Mallocs - m0.Mallocs
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		r.gcs = m1.NumGC - m0.NumGC
	}
	return r, nil
}

// perRound is the median of f over the plain (or traced) rounds.
func perRound(rounds []round, traced bool, f func(*round) float64) float64 {
	var xs []float64
	for i := range rounds {
		if rounds[i].traced == traced {
			xs = append(xs, f(&rounds[i]))
		}
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runNs(c *cellResult) float64 { return float64(c.run.Nanoseconds()) }
func pkts(c *cellResult) float64  { return float64(c.pkts) }

func endToEndMetrics(rounds []round, setups []float64) map[string]metricValue {
	v := map[string]float64{
		"run_ns_per_pkt": perRound(rounds, false, func(r *round) float64 { return ratio(r.sum(runNs), r.sum(pkts)) }),
		"max_rss_mb":     perRound(rounds, false, func(r *round) float64 { return r.rss }),
		"setup_s":        median(setups),
	}
	return withUnits(endToEnd, v)
}

func layerMetrics(rounds []round, a *attribution) map[string]metricValue {
	// Counts are deterministic: report their mean per round over the
	// first minRounds plain rounds. Self times per unit of work divide a
	// layer's profile time by the work of the traced rounds.
	count := func(f func(*cellResult) float64) float64 {
		t := 0.0
		for i := range rounds {
			if r := &rounds[i]; !r.traced && r.index < minRounds {
				t += r.sum(f)
			}
		}
		return t / minRounds
	}
	tracedSum := func(f func(*cellResult) float64) float64 {
		t := 0.0
		for i := range rounds {
			if rounds[i].traced {
				t += rounds[i].sum(f)
			}
		}
		return t
	}
	perUnit := func(layer string, f func(*cellResult) float64) float64 {
		return ratio(float64(a.ns[layer]), tracedSum(f))
	}
	events := func(c *cellResult) float64 { return float64(c.events) }
	flows := func(c *cellResult) float64 { return float64(c.offered) }
	cross := func(c *cellResult) float64 { return float64(c.shard.CrossPackets) }
	shardRounds := func(c *cellResult) float64 { return float64(c.shard.Rounds) }
	winRun := count(func(c *cellResult) float64 { return float64(c.shard.WindowsRun) })
	winSkip := count(func(c *cellResult) float64 { return float64(c.shard.WindowsSkipped) })
	// Rounds alternate plain, traced on the same flows.
	var overhead []float64
	for i := 1; i < len(rounds); i += 2 {
		overhead = append(overhead, ratio(rounds[i].sum(runNs), rounds[i-1].sum(runNs))-1)
	}

	v := map[string]float64{
		"sim.events":                             count(events),
		"sim.ns_per_event":                       perUnit("sim", events),
		"netsim.pkts":                            count(pkts),
		"netsim.drops":                           count(func(c *cellResult) float64 { return float64(c.drops) }),
		"netsim.ns_per_pkt":                      perUnit("netsim", pkts),
		"netsim.cross.pkts":                      count(cross),
		"netsim.cross.ns_per_pkt":                perUnit("netsim.cross", cross),
		"transport.sharded.rounds":               count(shardRounds),
		"transport.sharded.windows_skipped_frac": ratio(winSkip, winRun+winSkip),
		"transport.sharded.barrier_frac": perRound(rounds, false, func(r *round) float64 {
			return ratio(r.sum(func(c *cellResult) float64 { return float64(c.shard.BarrierNs) }),
				r.sum(func(c *cellResult) float64 { return float64(c.shard.BarrierNs + c.shard.RunNs) }))
		}),
		"transport.sharded.us_per_round": perUnit("transport.sharded", shardRounds) / 1e3,
		"transport.ns_per_flow":          perUnit("transport", flows),
		"stats.ns_per_flow":              perUnit("stats", flows),
		"stats.spilled_records":          count(func(c *cellResult) float64 { return float64(c.spilled) }),
		"workload.ns_per_flow":           perUnit("workload", flows),
		"topo.build_ms": perRound(rounds, false, func(r *round) float64 {
			return r.sum(func(c *cellResult) float64 { return float64(c.topo.Nanoseconds()) / 1e6 })
		}),
		"gc.frac":       ratio(float64(a.gcNs), float64(a.total)),
		"mem.allocs":    perRound(rounds, false, func(r *round) float64 { return float64(r.allocs) }),
		"mem.alloc_mb":  perRound(rounds, false, func(r *round) float64 { return float64(r.allocBytes) / (1 << 20) }),
		"mem.gc_cycles": perRound(rounds, false, func(r *round) float64 { return float64(r.gcs) }),
		"span.workload_next_s": perRound(rounds, true, func(r *round) float64 {
			return r.sum(func(c *cellResult) float64 { return c.next.Seconds() })
		}),
		"trace.overhead_frac": median(overhead),
		"trace.samples":       float64(a.count),
		"stats.resident_peak": 0,
	}
	for _, l := range layers {
		v[l+".self_frac"] = a.frac(l)
	}
	for _, r := range rounds {
		for _, c := range r.cells {
			if !r.traced && r.index < minRounds {
				v["stats.resident_peak"] = max(v["stats.resident_peak"], float64(c.resident))
			}
		}
	}
	for _, sc := range schemes {
		only := func(f func(*cellResult) float64) func(*cellResult) float64 {
			return func(c *cellResult) float64 {
				if c.scheme != sc.name {
					return 0
				}
				return f(c)
			}
		}
		p := "transport." + sc.name
		v[p+".ns_per_pkt"] = ratio(float64(a.cellNs[sc.name][p]), tracedSum(only(pkts)))
		v[p+".efficiency"] = count(only(func(c *cellResult) float64 { return c.eff }))
		m := "model." + sc.name
		v[m+".overall_avg_us"] = count(only(func(c *cellResult) float64 { return c.sum.OverallAvg.Micros() }))
		v[m+".small_avg_us"] = count(only(func(c *cellResult) float64 { return c.sum.SmallAvg.Micros() }))
		v[m+".small_p99_us"] = count(only(func(c *cellResult) float64 { return c.sum.SmallP99.Micros() }))
		v[m+".large_avg_us"] = count(only(func(c *cellResult) float64 { return c.sum.LargeAvg.Micros() }))
	}
	return withUnits(perLayer, v)
}

// withUnits pairs every defined metric with its unit. A metric the run
// has no value for is a bug in this program.
func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			panic("pptbench: no value for metric " + d.name)
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out
}
