package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ppt/internal/benchfmt"
	"ppt/internal/exp"
)

// benchFlows is the per-experiment workload size used by -benchjson:
// the same smoke scale as the repo's bench_test.go figure benchmarks,
// so the recorded trajectory stays comparable across engine changes.
const benchFlows = 60

// scaleCases is the flow-scaling family appended after the figure
// sweep: the fig12 workload at 3k and 30k flows, restricted to the two
// hot pooled schemes so a run stays tractable. The pair feeds
// benchcmp's growth gate — with pooled flows/endpoints a 10× flow count
// must cost no more than ~10× the allocations (sub-linear per-flow
// growth), where the pre-pool engine scaled superlinearly.
var scaleCases = []struct {
	name  string
	flows int
}{
	{"scale3k", 3_000},
	{"scale30k", 30_000},
}

// scaleSchemes restricts the scale family's comparison cells.
var scaleSchemes = []string{"ppt", "dctcp"}

// streamScaleCases is the streamed scale family: the scale1M experiment
// (lazy FlowSource + spilling FCT collector, Memcached W1) at 100k and
// 1M flows. The pair feeds benchcmp's second growth gate — with the
// workload streamed and the completion log spilled, a 10× flow count
// must cost no more than ~10× the allocations.
var streamScaleCases = []struct {
	name  string
	flows int
}{
	{"scale100k", 100_000},
	{"scale1M", 1_000_000},
}

// webScaleFlows sizes the scale1M-websearch bench pair. It matches the
// experiment's default and — deliberately — exceeds the experiment's
// 16Ki-record spill chunk, so the pair measures the windowed spill fold
// (per-shard logs folding into a spilling collector at barriers), not
// just the streamed path. ~15k scheduler events per websearch flow make
// this the entry where sharded workers earn their keep, so the pair
// also feeds benchcmp's speedup gate with a genuinely spilled cell.
const webScaleFlows = 20_000

// scaleShardWorkers is the worker cap of the sharded scale entries
// (scale3k-s4 / scale30k-s4): the same workloads as their serial
// partners but with up to 4 worker goroutines executing the windowed
// engine's shards, so benchcmp can report per-pair wall-clock speedup.
// On machines with fewer than 4 CPUs the pair still runs (results are
// identical by construction) but measures oversubscribed goroutines;
// benchcmp treats the speedup column as informational there.
const scaleShardWorkers = 4

// benchOne runs one experiment serially and measures wall time and the
// process-wide allocation delta around it.
func benchOne(name, id string, o exp.Options) (benchfmt.Entry, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := exp.RunByID(id, o)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchfmt.Entry{}, fmt.Errorf("bench %s: %w", name, err)
	}
	entry := benchfmt.Entry{
		Name:        name,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
		Events:      res.Events,
	}
	if s := elapsed.Seconds(); s > 0 {
		entry.EventsPerSec = float64(res.Events) / s
	}
	if st := res.Sharding; st != nil {
		entry.Rounds = st.Rounds
		entry.WindowsRun = st.WindowsRun
		entry.WindowsSkipped = st.WindowsSkipped
		entry.CrossPackets = st.CrossPackets
		entry.BarrierFrac = st.BarrierFrac()
		entry.EventMinShare, entry.EventMaxShare = st.EventShareBounds()
	}
	if cs := res.Cache; cs != nil {
		entry.CacheHits = cs.Hits + cs.Shared
		entry.CacheMisses = cs.Misses
	}
	return entry, nil
}

// writeBenchJSON benchmarks every registered simulation experiment once
// (at smoke scale, serial cells so the measurement is of the engine
// rather than the worker pool), then the scale family, and writes the
// results to path. Experiments that execute no scheduler events (static
// tables, the identification study) are skipped: they finish in
// microseconds, so their timings are pure noise to the benchcmp
// regression gate, and events/sec is undefined for them.
//
// A non-empty filter (comma-separated entry-name prefixes) restricts
// the run to matching entries — CI's multi-core speedup gate uses
// "scale3k,scale30k" to record just the sharded scale pairs without
// paying for the full figure sweep.
func writeBenchJSON(path, filter string, opts exp.Options) error {
	var prefixes []string
	if filter != "" {
		prefixes = strings.Split(filter, ",")
	}
	wanted := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	flows := opts.Flows
	if flows == 0 {
		flows = benchFlows
	}
	out := benchfmt.File{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Flows:     flows,
	}
	for _, e := range exp.List() {
		if e.ID == "scale1M" || e.ID == "scale1M-websearch" {
			// Measured by the streamed scale families below at their real
			// flow counts; a smoke-scale run here would collide with the
			// entry names.
			continue
		}
		if !wanted(e.ID) {
			continue
		}
		o := exp.Options{Flows: flows, Seed: opts.Seed, Parallel: 1,
			Cache: opts.Cache, CacheVerify: opts.CacheVerify}
		entry, err := benchOne(e.ID, e.ID, o)
		if err != nil {
			return err
		}
		// A warm-cache entry also executes zero events, but it measured
		// something (replay latency) and carries the hit counts benchcmp
		// needs to exclude it from the ns/op gate — keep it.
		if entry.Events == 0 && entry.CacheHits == 0 {
			fmt.Fprintf(os.Stderr, "%-8s skipped (no scheduler events)\n", e.ID)
			continue
		}
		out.Entries = append(out.Entries, entry)
		fmt.Fprintf(os.Stderr, "%-8s %12d ns/op %10d allocs/op %8.2f Mevents/s\n",
			e.ID, entry.NsPerOp, entry.AllocsPerOp, entry.EventsPerSec/1e6)
	}
	for _, sc := range scaleCases {
		for _, shards := range []int{1, scaleShardWorkers} {
			name := sc.name
			if shards > 1 {
				name = fmt.Sprintf("%s-s%d", sc.name, shards)
			}
			if !wanted(name) {
				continue
			}
			o := exp.Options{Flows: sc.flows, Seed: opts.Seed, Parallel: 1,
				Schemes: scaleSchemes, Shards: shards,
				Cache: opts.Cache, CacheVerify: opts.CacheVerify}
			entry, err := benchOne(name, "fig12", o)
			if err != nil {
				return err
			}
			out.Entries = append(out.Entries, entry)
			fmt.Fprintf(os.Stderr, "%-12s %12d ns/op %10d allocs/op %8.2f Mevents/s\n",
				name, entry.NsPerOp, entry.AllocsPerOp, entry.EventsPerSec/1e6)
		}
	}
	for _, sc := range streamScaleCases {
		if !wanted(sc.name) {
			continue
		}
		o := exp.Options{Flows: sc.flows, Seed: opts.Seed, Parallel: 1,
			Schemes: scaleSchemes, Cache: opts.Cache, CacheVerify: opts.CacheVerify}
		entry, err := benchOne(sc.name, "scale1M", o)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entry)
		fmt.Fprintf(os.Stderr, "%-12s %12d ns/op %10d allocs/op %8.2f Mevents/s\n",
			sc.name, entry.NsPerOp, entry.AllocsPerOp, entry.EventsPerSec/1e6)
	}
	for _, shards := range []int{1, scaleShardWorkers} {
		name := "scale1M-websearch"
		if shards > 1 {
			name = fmt.Sprintf("scale1M-websearch-s%d", shards)
		}
		if !wanted(name) {
			continue
		}
		o := exp.Options{Flows: webScaleFlows, Seed: opts.Seed, Parallel: 1,
			Schemes: scaleSchemes, Shards: shards,
			Cache: opts.Cache, CacheVerify: opts.CacheVerify}
		entry, err := benchOne(name, "scale1M-websearch", o)
		if err != nil {
			return err
		}
		out.Entries = append(out.Entries, entry)
		fmt.Fprintf(os.Stderr, "%-20s %12d ns/op %10d allocs/op %8.2f Mevents/s\n",
			name, entry.NsPerOp, entry.AllocsPerOp, entry.EventsPerSec/1e6)
	}
	return out.Write(path)
}
