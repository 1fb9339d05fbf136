// Command pptsim regenerates the paper's tables and figures.
//
// Usage:
//
//	pptsim -list
//	pptsim -exp fig12
//	pptsim -exp fig8 -flows 1000 -seed 7 -repeats 3
//	pptsim -exp fig8 -repeats 8 -parallel 4 -progress
//	pptsim -exp fig12 -schemes ppt,dctcp -load 0.7
//	pptsim -exp fig12 -csv   > fig12.csv
//	pptsim -exp fig12 -json  > fig12.json
//	pptsim -all
//
// Simulation cells (each scheme × repeat × load point) run on a worker
// pool -parallel wide (default GOMAXPROCS); output is identical to a
// serial run (-parallel 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"ppt/internal/cache"
	"ppt/internal/exp"
)

func main() {
	var (
		id       = flag.String("exp", "", "experiment id (e.g. fig12, table2, ident)")
		list     = flag.Bool("list", false, "list available experiments")
		all      = flag.Bool("all", false, "run every experiment")
		flows    = flag.Int("flows", 0, "override workload size (0 = experiment default)")
		load     = flag.Float64("load", 0, "override network load where applicable")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		repeats  = flag.Int("repeats", 1, "average metrics over this many seeds")
		parallel = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial)")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr")
		schemes  = flag.String("schemes", "", "comma-separated scheme filter (e.g. ppt,dctcp)")
		shards   = flag.Int("shards", 1, "worker-goroutine cap for the windowed sharded engine on leaf-spine fabrics (results are identical at any value >= 1)")
		asCSV    = flag.Bool("csv", false, "emit results as CSV instead of tables")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of tables")

		cacheDir    = flag.String("cache", "off", "content-addressed result-cache directory, or off; hits replay cell results without simulating (keys exclude -shards/-parallel — outcomes are engine-invariant)")
		cacheVerify = flag.Bool("cache-verify", false, "recompute every cache hit and byte-compare against the stored result; any divergence fails the run (determinism tripwire; requires -cache DIR)")
		cacheMaxMB  = flag.Int("cache-max-mb", 0, "evict least-recently-modified cache entries at startup until the directory fits this many MB (0 = uncapped; requires -cache DIR)")

		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile   = flag.String("trace", "", "write a runtime execution trace to this file")
		benchjson   = flag.String("benchjson", "", "benchmark every experiment once and write ns/op, allocs/op and events/sec to this JSON file (e.g. BENCH_2026-08-06.json)")
		benchfilter = flag.String("benchfilter", "", "comma-separated entry-name prefixes restricting -benchjson (e.g. scale3k,scale30k runs only the sharded scale pairs); empty runs everything")
	)
	flag.Parse()

	// Validate engine knobs up front, before any (possibly long) run
	// starts, so a typo fails in milliseconds with a usable message.
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "pptsim: invalid -parallel %d: want 0 (= GOMAXPROCS) or a positive worker count\n", *parallel)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "pptsim: invalid -shards %d: want a positive worker cap (1 = single-threaded windowed engine)\n", *shards)
		os.Exit(2)
	}
	if *repeats < 1 {
		fmt.Fprintf(os.Stderr, "pptsim: invalid -repeats %d: want a positive repeat count\n", *repeats)
		os.Exit(2)
	}
	cacheOn := *cacheDir != "" && *cacheDir != "off"
	if *cacheVerify && !cacheOn {
		fmt.Fprintln(os.Stderr, "pptsim: -cache-verify has nothing to verify without a cache: pass -cache DIR")
		os.Exit(1)
	}
	if *cacheMaxMB < 0 {
		fmt.Fprintf(os.Stderr, "pptsim: invalid -cache-max-mb %d: want a size in MB (0 = uncapped)\n", *cacheMaxMB)
		os.Exit(1)
	}
	if *cacheMaxMB > 0 && !cacheOn {
		fmt.Fprintln(os.Stderr, "pptsim: -cache-max-mb has no cache to cap: pass -cache DIR")
		os.Exit(1)
	}
	var resultCache *cache.Cache
	if cacheOn {
		c, err := cache.Open(*cacheDir, int64(*cacheMaxMB)<<20)
		if err != nil {
			// Typically an unwritable or uncreatable directory — fail in
			// milliseconds, not after a long cold sweep.
			fmt.Fprintf(os.Stderr, "pptsim: %v\n", err)
			os.Exit(1)
		}
		resultCache = c
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	opts := exp.Options{Flows: *flows, Load: *load, Seed: *seed, Repeats: *repeats, Parallel: *parallel, Shards: *shards,
		Cache: resultCache, CacheVerify: *cacheVerify,
		// An explicit multi-shard request from the CLI should fail
		// loudly on topologies that can't partition instead of
		// silently running monolithic.
		StrictShards: *shards > 1}
	if *schemes != "" {
		opts.Schemes = strings.Split(*schemes, ",")
	}
	if *progress {
		progressOn = true
		opts.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	format = formatTable
	if *asCSV {
		format = formatCSV
	}
	if *asJSON {
		format = formatJSON
	}

	switch {
	case *list:
		fmt.Printf("%-8s %s\n", "ID", "TITLE")
		for _, e := range exp.List() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case *benchjson != "":
		if err := writeBenchJSON(*benchjson, *benchfilter, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *all:
		ok := true
		for _, e := range exp.List() {
			ok = run(e.ID, opts) && ok
		}
		if resultCache != nil {
			ok = cacheEpilogue(resultCache) && ok
		}
		if !ok {
			os.Exit(1)
		}
	case *id != "":
		ok := run(*id, opts)
		if resultCache != nil {
			ok = cacheEpilogue(resultCache) && ok
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// cacheEpilogue reports the whole-process cache accounting (under
// -progress) and turns any -cache-verify divergence into a failing
// exit: a mismatch means a stored entry and a fresh execution of the
// same cell disagree byte-for-byte, i.e. the determinism contract the
// cache banks on is broken somewhere. That must never pass silently.
func cacheEpilogue(c *cache.Cache) bool {
	st := c.Stats()
	if progressOn {
		fmt.Fprintf(os.Stderr, "cache: %s\n", st.String())
	}
	if st.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "pptsim: -cache-verify found %d cell(s) whose stored result diverges from fresh execution\n", st.Mismatches)
		return false
	}
	return true
}

// progressOn mirrors the -progress flag for helpers outside main.
var progressOn bool

type outputFormat int

const (
	formatTable outputFormat = iota
	formatCSV
	formatJSON
)

var format outputFormat

// run executes one experiment and prints it. It returns false when
// every cell failed (e.g. a strict -shards request on a topology that
// cannot partition), after echoing the per-cell errors to stderr, and
// when -schemes leaves the experiment no row. Any other error is a bad
// flag, which exits at once.
func run(id string, opts exp.Options) bool {
	start := time.Now()
	res, err := exp.RunByID(id, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if !errors.Is(err, exp.ErrNoRows) {
			os.Exit(1)
		}
		return false
	}
	for _, row := range res.Rows {
		if row.Sum.Truncated {
			fmt.Fprintf(os.Stderr, "warning: %s/%s hit its event/deadline bound with %d flows unfinished; FCT stats are biased toward fast flows\n",
				id, row.Label, row.Sum.Unfinished)
		}
	}
	failed, produced := 0, false
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "cell failed: ") {
			failed++
		}
	}
	for _, row := range res.Rows {
		if row.Sum.Flows > 0 || len(row.Extra) > 0 {
			produced = true
		}
	}
	allFailed := failed > 0 && !produced && len(res.Rows) > 0
	if allFailed {
		for _, n := range res.Notes {
			if strings.HasPrefix(n, "cell failed: ") {
				fmt.Fprintf(os.Stderr, "pptsim: %s: %s\n", id, n)
			}
		}
	}
	switch format {
	case formatCSV:
		fmt.Print(res.CSV())
	case formatJSON:
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	default:
		fmt.Print(res.Render())
		fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return !allFailed
}
