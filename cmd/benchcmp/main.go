// Command benchcmp diffs a fresh pptsim -benchjson run against a
// checked-in BENCH_*.json baseline and fails (exit 1) when any
// experiment regressed beyond its threshold: ns/op beyond -threshold
// AND beyond the -min-delta absolute floor, or allocs/op beyond
// -alloc-threshold.
//
// The -min-delta floor exists because percentage thresholds alone make
// short entries flip-flop: a run measured in hundreds of milliseconds
// swings past 15% from scheduler jitter alone on a busy CI machine,
// while the same absolute wobble is invisible on a two-minute entry.
// An ns/op regression therefore only gates when the normalized delta
// also exceeds -min-delta nanoseconds — small-entry noise is reported
// but never fails the gate, and real regressions on the entries big
// enough to measure still do.
//
// Because baselines are recorded on whatever machine cut the PR while
// CI runs on different hardware, the ns/op comparison normalizes by
// default: fresh timings are scaled by sum(base ns)/sum(fresh ns)
// before the per-entry check, so a uniform machine-speed difference
// cancels out and the gate triggers only when individual experiments
// regressed relative to the rest of the suite. Disable with
// -no-normalize when both files come from the same machine. Allocation
// counts are machine-independent, so the allocs/op gate always compares
// raw values.
//
// When the fresh file carries a scale family, the gate additionally
// checks allocation growth over each 10× pair — scale3k→scale30k
// (materialized workload, pooled flow/endpoint lifecycle) and
// scale100k→scale1M (streamed workload, spilling FCT collector): the
// big run must not allocate more than -scale-growth times its small
// partner. Exceeding the factor means per-flow allocation crept back
// in.
//
// Sharded entries (a name of the form X-s<k>, e.g. scale30k-s4) pair
// with their serial partner X within the fresh file and are reported as
// a wall-clock speedup column — both runs come from the same process on
// the same machine, so no normalization applies. The column is
// informational when the fresh machine has fewer CPUs than the entry's
// worker count (the workers just time-slice one core); with enough CPUs
// a -min-speedup bound turns it into a gate.
//
// Usage:
//
//	benchcmp -base BENCH_2026-08-06.json -fresh bench.json [-threshold 15]
//	         [-min-delta 500000000] [-alloc-threshold 20] [-scale-growth 10]
//	         [-min-speedup 0] [-report-only] [-no-normalize]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ppt/internal/benchfmt"
)

func main() {
	var (
		basePath    = flag.String("base", "", "checked-in baseline BENCH_*.json")
		freshPath   = flag.String("fresh", "", "freshly generated bench json")
		threshold   = flag.Float64("threshold", 15, "max allowed ns/op regression, percent")
		minDelta    = flag.Float64("min-delta", 500_000_000, "noise floor: an ns/op regression only gates when the normalized delta also exceeds this many ns (0 disables)")
		allocThresh = flag.Float64("alloc-threshold", 20, "max allowed allocs/op regression, percent (0 disables)")
		scaleGrowth = flag.Float64("scale-growth", 10, "max allocs/op ratio of each 10x scale pair (scale30k/scale3k, scale1M/scale100k; 0 disables)")
		minSpeedup  = flag.Float64("min-speedup", 0, "min wall-clock speedup of each X-s<k> entry over its serial partner X; gates only when the fresh machine has >= k CPUs (0 disables)")
		reportOnly  = flag.Bool("report-only", false, "print the comparison but always exit 0 (PR mode)")
		noNormalize = flag.Bool("no-normalize", false, "compare raw ns/op without machine-speed normalization")
	)
	flag.Parse()
	if *basePath == "" || *freshPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := benchfmt.Read(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fresh, err := benchfmt.Read(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	freshBy := fresh.ByName()
	// Machine-speed factor over the entries both files share.
	var baseSum, freshSum float64
	type pair struct {
		name string
		b, f benchfmt.Entry
	}
	var pairs []pair
	var removed, added []string
	for _, b := range base.Entries {
		f, ok := freshBy[b.Name]
		if !ok {
			removed = append(removed, b.Name)
			continue
		}
		pairs = append(pairs, pair{b.Name, b, f})
		// Cache-hit-dominated entries measured replay latency, not the
		// engine: keeping their near-zero timings in the sums would skew
		// the machine-speed factor for every honest entry.
		if !cacheDominated(b) && !cacheDominated(f) {
			baseSum += float64(b.NsPerOp)
			freshSum += float64(f.NsPerOp)
		}
	}
	baseBy := base.ByName()
	for _, f := range fresh.Entries {
		if _, ok := baseBy[f.Name]; !ok {
			added = append(added, f.Name)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)

	scale := 1.0
	if !*noNormalize && freshSum > 0 {
		scale = baseSum / freshSum
	}
	fmt.Printf("benchcmp: base %s (%s, %d cpu) vs fresh %s (%s, %d cpu), ns threshold %.0f%%, alloc threshold %.0f%%, scale %.3f\n",
		*basePath, base.Date, base.NumCPU, *freshPath, fresh.Date, fresh.NumCPU, *threshold, *allocThresh, scale)
	fmt.Printf("%-10s %15s %15s %9s %14s %9s %9s\n",
		"name", "base-ns/op", "fresh-ns/op*", "ns-delta", "allocs/op", "al-delta", "Mev/s")

	nsFailed, allocFailed := 0, 0
	var eventNotes []string
	for _, p := range pairs {
		adj := float64(p.f.NsPerOp) * scale
		delta := 100 * (adj - float64(p.b.NsPerOp)) / float64(p.b.NsPerOp)
		mark := ""
		if cacheDominated(p.f) || cacheDominated(p.b) {
			// A hit-dominated run measured cache replay, not the engine:
			// its ns/op is meaningless against (or as) an uncached
			// baseline, and would drown a real engine regression in an
			// apparent 100x "improvement". Report, never gate.
			fmt.Printf("%-10s %15d %15.0f %+8.1f%% %14d %9s %9s  (cache-hit dominated: excluded from ns/op gate)\n",
				p.name, p.b.NsPerOp, adj, delta, p.f.AllocsPerOp, "-", "-")
			continue
		}
		if delta > *threshold {
			if abs := adj - float64(p.b.NsPerOp); *minDelta > 0 && abs < *minDelta {
				// Over the percentage threshold but under the absolute
				// noise floor: a short entry wobbling, not a regression.
				mark = "  (ns noise: below min-delta floor)"
			} else {
				mark = "  NS-REGRESSION"
				nsFailed++
			}
		}
		// Allocation counts don't depend on machine speed: compare raw.
		allocDelta := 0.0
		if p.b.AllocsPerOp > 0 {
			allocDelta = 100 * (float64(p.f.AllocsPerOp) - float64(p.b.AllocsPerOp)) / float64(p.b.AllocsPerOp)
		}
		if *allocThresh > 0 && allocDelta > *allocThresh {
			mark += "  ALLOC-REGRESSION"
			allocFailed++
		}
		// Events/sec is informational; a run that recorded no events
		// (old writer, skipped entry) renders as "-" instead of 0.00.
		mevs := "-"
		if p.f.Events > 0 && p.f.EventsPerSec > 0 {
			mevs = fmt.Sprintf("%.2f", p.f.EventsPerSec/1e6)
		}
		fmt.Printf("%-10s %15d %15.0f %+8.1f%% %14d %+8.1f%% %9s%s\n",
			p.name, p.b.NsPerOp, adj, delta, p.f.AllocsPerOp, allocDelta, mevs, mark)
		if p.b.Events > 0 && p.f.Events > 0 && p.b.Events != p.f.Events {
			evDelta := 100 * (float64(p.f.Events) - float64(p.b.Events)) / float64(p.b.Events)
			eventNotes = append(eventNotes, fmt.Sprintf(
				"events-delta: %s executed %d events vs baseline %d (%+.1f%%) — an engine event-count change (e.g. the fused port pipeline), not a perf regression; the gate compares normalized ns/op and allocs/op only",
				p.name, p.f.Events, p.b.Events, evDelta))
		}
	}
	for _, n := range eventNotes {
		fmt.Println(n)
	}
	for _, n := range removed {
		fmt.Printf("%-10s only in baseline (entry removed?)\n", n)
	}
	for _, n := range added {
		fmt.Printf("%-10s new entry (no baseline)\n", n)
	}

	// Sub-linear allocation-growth gates over the fresh scale families:
	// the materialized pair (scale3k/scale30k) guards the pooled
	// flow/endpoint lifecycle, the streamed pair (scale100k/scale1M)
	// additionally guards the lazy-FlowSource + spilling-collector path.
	// Each big run spans 10× its small partner's flows, so staying under
	// the factor means per-flow allocation stays bounded.
	growthFailed := 0
	if *scaleGrowth > 0 {
		for _, gp := range []struct{ small, big string }{
			{"scale3k", "scale30k"},
			{"scale100k", "scale1M"},
		} {
			small, okS := freshBy[gp.small]
			big, okB := freshBy[gp.big]
			switch {
			case okS && okB && small.AllocsPerOp > 0:
				ratio := float64(big.AllocsPerOp) / float64(small.AllocsPerOp)
				verdict := "ok (sub-linear)"
				if ratio > *scaleGrowth {
					verdict = "GROWTH-REGRESSION"
					growthFailed++
				}
				fmt.Printf("scale-growth: %s/%s allocs/op = %.2fx (limit %.0fx): %s\n",
					gp.big, gp.small, ratio, *scaleGrowth, verdict)
			case okS || okB:
				fmt.Printf("scale-growth: incomplete %s/%s pair in fresh run, skipping\n", gp.small, gp.big)
			}
		}
	}

	// Wall-clock speedup of sharded entries over their serial partners.
	// Both halves of a pair come from the same fresh run, so the raw
	// ns/op ratio is a genuine same-machine measurement.
	speedupFailed := 0
	for _, f := range fresh.Entries {
		serialName, workers, ok := shardPartner(f.Name)
		if !ok {
			continue
		}
		serial, okS := freshBy[serialName]
		if !okS || f.NsPerOp <= 0 {
			continue
		}
		speedup := float64(serial.NsPerOp) / float64(f.NsPerOp)
		verdict := ""
		regressed := false
		switch {
		case fresh.NumCPU < workers:
			verdict = fmt.Sprintf(" (informational: %d workers on %d cpu)", workers, fresh.NumCPU)
		case *minSpeedup > 0 && speedup < *minSpeedup:
			verdict = fmt.Sprintf("  SPEEDUP-REGRESSION (want >= %.2fx)", *minSpeedup)
			regressed = true
			speedupFailed++
		}
		fmt.Printf("speedup: %s vs %s = %.2fx%s%s\n",
			f.Name, serialName, speedup, shardExtras(f), verdict)
		if regressed {
			// Say why: the windowed-engine extras localize a parallel
			// regression to barrier overhead, idle windows, or load
			// imbalance without a rerun under a profiler.
			fmt.Printf("speedup: %s diagnosis: %s\n", f.Name, diagnose(f))
		}
	}

	failed := nsFailed + allocFailed + growthFailed + speedupFailed
	if failed > 0 {
		fmt.Printf("benchcmp: %d regression%s (%d ns/op beyond %.0f%%, %d allocs/op beyond %.0f%%, %d scale growth, %d speedup)\n",
			failed, map[bool]string{true: "", false: "s"}[failed == 1],
			nsFailed, *threshold, allocFailed, *allocThresh, growthFailed, speedupFailed)
		if !*reportOnly {
			os.Exit(1)
		}
		fmt.Println("benchcmp: report-only mode, not failing")
	} else {
		fmt.Println("benchcmp: no regressions beyond thresholds")
	}
}

// cacheDominated reports whether an entry's timing mostly measured
// result-cache replay rather than engine execution: it saw at least one
// hit and no more misses than hits. An all-miss run through a cold
// cache still measured the engine (plus a <2% store overhead) and
// stays in the gate.
func cacheDominated(e benchfmt.Entry) bool {
	return e.CacheHits > 0 && e.CacheHits >= e.CacheMisses
}

// shardExtras renders the windowed-engine instrumentation carried by a
// sharded entry (empty when the entry predates the extras).
func shardExtras(e benchfmt.Entry) string {
	if e.Rounds == 0 {
		return ""
	}
	skipFrac := 0.0
	if t := e.WindowsRun + e.WindowsSkipped; t > 0 {
		skipFrac = float64(e.WindowsSkipped) / float64(t)
	}
	return fmt.Sprintf(" [rounds %d, windows skipped %.0f%%, barrier %.0f%%, event share %.0f-%.0f%%]",
		e.Rounds, 100*skipFrac, 100*e.BarrierFrac, 100*e.EventMinShare, 100*e.EventMaxShare)
}

// diagnose names the dominant windowed-engine cost of a sharded entry
// that missed its speedup bound.
func diagnose(e benchfmt.Entry) string {
	if e.Rounds == 0 {
		return "no windowed-engine extras recorded (old writer?); rerun pptsim -benchjson for diagnostics"
	}
	var reasons []string
	if e.BarrierFrac > 0.3 {
		reasons = append(reasons, fmt.Sprintf("barrier-bound (%.0f%% of engine wall-clock at barriers over %d rounds — lookahead too narrow or merge too slow)",
			100*e.BarrierFrac, e.Rounds))
	}
	if spread := e.EventMaxShare - e.EventMinShare; e.EventMaxShare > 0 && spread > 0.4 {
		reasons = append(reasons, fmt.Sprintf("load-imbalanced (per-shard event shares span %.0f%%-%.0f%% — partitioner concentrating the work on few shards)",
			100*e.EventMinShare, 100*e.EventMaxShare))
	}
	if t := e.WindowsRun + e.WindowsSkipped; t > 0 {
		if skip := float64(e.WindowsSkipped) / float64(t); skip > 0.6 {
			reasons = append(reasons, fmt.Sprintf("mostly idle windows (%.0f%% skipped — workload too sparse for this shard count)", 100*skip))
		}
	}
	if len(reasons) == 0 {
		return "extras look healthy (low barrier share, balanced shards); the regression is likely outside the windowed engine (machine load, allocator, workload change)"
	}
	return strings.Join(reasons, "; ")
}

// shardPartner splits a sharded bench name "X-s<k>" into its serial
// partner "X" and worker count k; ok is false for any other name.
func shardPartner(name string) (serial string, workers int, ok bool) {
	i := strings.LastIndex(name, "-s")
	if i <= 0 {
		return "", 0, false
	}
	k, err := strconv.Atoi(name[i+2:])
	if err != nil || k < 1 {
		return "", 0, false
	}
	return name[:i], k, true
}
