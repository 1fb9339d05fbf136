// Package exp contains one registered experiment per table and figure in
// the paper's evaluation, each reproducible from the pptsim CLI or the
// root bench harness. Experiments build a fresh fabric per scheme,
// generate a workload, run it to completion, and report the paper's FCT
// breakdown (overall average, small-flow average/p99, large-flow
// average) plus experiment-specific extras.
package exp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ppt/internal/cache"
	"ppt/internal/sim"
	"ppt/internal/stats"
	"ppt/internal/transport"
	"ppt/internal/workload"
)

// Options scale and filter an experiment run.
type Options struct {
	// Flows scales the workload (0 = experiment default). RunByID
	// rejects a negative count.
	Flows int
	// Load overrides the network load where meaningful (0 = default).
	// RunByID rejects a negative, NaN or infinite load.
	Load float64
	// Seed randomizes workloads (default 1).
	Seed int64
	// Schemes, when non-empty, restricts every simulated row to the
	// named schemes: a row runs when its protocol's scheme table name is
	// listed, where every PPT variant (ablations included) counts as
	// "ppt" and the §2.3 oracle as "hypothetical". Static tables keep
	// their rows. RunByID rejects an unknown name, and a filter that
	// leaves an experiment no row (ErrNoRows).
	Schemes []string
	// Repeats, when > 1, averages each row's metrics over this many
	// independent seeds (seed, seed+1, ...). Percentiles are averaged
	// across repeats (a mean-of-p99s, not a pooled p99).
	Repeats int
	// Parallel caps how many simulation cells run concurrently
	// (0 = GOMAXPROCS, 1 = serial). Every cell builds a private fabric
	// and scheduler, and rows are assembled from index-addressed slots in
	// submission order, so results are identical at any setting.
	Parallel int
	// OnProgress, when set, observes each completed cell as (done,
	// total). Calls are serialized but may come from worker goroutines.
	OnProgress func(done, total int)
	// Shards caps the worker goroutines per leaf-spine cell at
	// min(Shards, shards-in-topology) (0 = default 1). Every leaf-spine
	// cell runs the conservative windowed engine, and results are
	// byte-identical at every setting (pinned by the golden matrix).
	// Star/dumbbell fabrics ignore it. Validated by RunByID.
	Shards int
	// StrictShards makes a Shards > 1 request on a fabric that cannot
	// partition (single-switch star/dumbbell topologies) fail the cell
	// with a clear error instead of silently running monolithic. The
	// CLI sets it for explicit -shards requests; the API default stays
	// permissive so experiment matrices can sweep Shards uniformly.
	StrictShards bool
	// Cache, when non-nil, answers cells content-addressed from the
	// result cache: each cell's canonical descriptor (outcome-relevant
	// inputs only — never the engine knobs above, which the golden
	// matrix pins as outcome-invisible) is hashed to a key, hits replay
	// the stored Summary+extras without simulating, and misses store
	// their result for the next run (DESIGN.md §7.8). Identical cells
	// inside one run are computed once and shared (singleflight).
	Cache *cache.Cache
	// CacheVerify makes every cache hit recompute the cell anyway and
	// byte-compare the stored entry against the fresh result — a
	// determinism tripwire. A divergence fails the cell (surfaced as a
	// note) and counts in the cache stats' Mismatches.
	CacheVerify bool

	// errs accumulates failed cells; RunByID surfaces them as notes.
	errs *errSink
	// events accumulates scheduler events executed across all cells
	// (atomically — cells run on worker goroutines); RunByID surfaces the
	// total as Result.Events for throughput (events/sec) reporting.
	events *uint64
	// sharding accumulates windowed-engine instrumentation across every
	// sharded cell; RunByID surfaces the sum as Result.Sharding.
	sharding *shardAgg
}

// shardAgg folds per-cell ShardStats under a lock (cells run on worker
// goroutines).
type shardAgg struct {
	mu sync.Mutex
	st *transport.ShardStats
}

func (a *shardAgg) add(st *transport.ShardStats) {
	if a == nil || st == nil {
		return
	}
	a.mu.Lock()
	if a.st == nil {
		a.st = &transport.ShardStats{}
	}
	a.st.Merge(st)
	a.mu.Unlock()
}

func (o Options) withDefaults(defFlows int) Options {
	if o.Flows == 0 {
		o.Flows = defFlows
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repeats == 0 {
		o.Repeats = 1
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.errs == nil {
		o.errs = &errSink{}
	}
	if o.events == nil {
		o.events = new(uint64)
	}
	if o.sharding == nil {
		o.sharding = &shardAgg{}
	}
	return o
}

// addEvents folds one scheduler's executed-event count into the
// experiment-wide total. Safe from worker goroutines.
func (o Options) addEvents(n uint64) {
	if o.events != nil {
		atomic.AddUint64(o.events, n)
	}
}

// loadOr returns the Load override, or def.
func (o Options) loadOr(def float64) float64 {
	if o.Load != 0 {
		return o.Load
	}
	return def
}

func (o Options) wants(scheme string) bool {
	if len(o.Schemes) == 0 {
		return true
	}
	for _, s := range o.Schemes {
		if s == scheme {
			return true
		}
	}
	return false
}

// Row is one line of an experiment's table.
type Row struct {
	Label string
	Sum   stats.Summary
	// Extra carries experiment-specific metrics (utilization,
	// occupancy, efficiency, accuracy...).
	Extra map[string]float64
}

// Result is a completed experiment.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string

	// Events is the total number of scheduler events executed across
	// every simulation cell of this run — the engine-throughput
	// denominator for events/sec benchmarking. Deliberately excluded
	// from Render/CSV so golden outputs stay engine-agnostic.
	Events uint64 `json:",omitempty"`

	// Sharding is the windowed engine's instrumentation summed over
	// every sharded cell (nil when no cell ran windowed). Like Events
	// it is JSON-only — excluded from Render/CSV so golden outputs stay
	// engine-agnostic.
	Sharding *transport.ShardStats `json:",omitempty"`

	// Cache is this run's slice of the result-cache accounting (nil when
	// no cache was configured): hits/misses/stores/verifies are deltas
	// over the run, Bytes is the directory's absolute size. JSON-only
	// like Events/Sharding — cache state must never leak into Render/CSV,
	// whose bytes are compared against fresh output by the warm-cache CI
	// job.
	Cache *cache.Stats `json:",omitempty"`
}

// CSV renders the result rows as comma-separated values (times in
// microseconds) for external plotting.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("experiment,scheme,overall_avg_us,small_avg_us,small_p99_us,large_avg_us,flows")
	extraKeys := map[string]bool{}
	for _, row := range r.Rows {
		for k := range row.Extra {
			extraKeys[k] = true
		}
	}
	keys := make([]string, 0, len(extraKeys))
	for k := range extraKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s", k)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%.3f,%.3f,%.3f,%.3f,%d",
			r.ID, row.Label, row.Sum.OverallAvg.Micros(), row.Sum.SmallAvg.Micros(),
			row.Sum.SmallP99.Micros(), row.Sum.LargeAvg.Micros(), row.Sum.Flows)
		for _, k := range keys {
			if v, ok := row.Extra[k]; ok {
				fmt.Fprintf(&b, ",%g", v)
			} else {
				b.WriteByte(',')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render formats the result as the paper-style text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	hasFCT := false
	for _, row := range r.Rows {
		if row.Sum.Flows > 0 {
			hasFCT = true
			break
		}
	}
	if hasFCT {
		fmt.Fprintf(&b, "%-22s %12s %12s %12s %12s %7s\n",
			"scheme", "overall-avg", "small-avg", "small-p99", "large-avg", "flows")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-22s %12s %12s %12s %12s %7d",
				row.Label, fmtT(row.Sum.OverallAvg), fmtT(row.Sum.SmallAvg),
				fmtT(row.Sum.SmallP99), fmtT(row.Sum.LargeAvg), row.Sum.Flows)
			b.WriteString(extras(row.Extra))
			b.WriteByte('\n')
		}
	} else {
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-22s", row.Label)
			b.WriteString(extras(row.Extra))
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func fmtT(t sim.Time) string {
	if t == 0 {
		return "-"
	}
	return t.String()
}

func extras(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%.4g", k, m[k])
	}
	return b.String()
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	// DefFlows is the default workload size.
	DefFlows int
	Run      func(o Options) *Result
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (try `pptsim -list`)", id)
	}
	return e, nil
}

// List returns all experiments sorted by id.
func List() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return natLess(out[i].ID, out[j].ID) })
	return out
}

// natLess orders fig2 before fig10.
func natLess(a, b string) bool {
	pa, na := splitNat(a)
	pb, nb := splitNat(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNat(s string) (string, int) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	n := 0
	for j := i; j < len(s) && s[j] >= '0' && s[j] <= '9'; j++ {
		n = n*10 + int(s[j]-'0')
	}
	return s[:i], n
}

// ErrNoRows is the error RunByID wraps when a Schemes filter leaves an
// experiment no row.
var ErrNoRows = errors.New("the scheme filter leaves no row")

// RunByID runs one experiment by id.
func RunByID(id string, o Options) (*Result, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	if err := checkScale(o.Flows, o.Load); err != nil {
		return nil, err
	}
	if err := checkSchemes(o.Schemes); err != nil {
		return nil, err
	}
	if o.Shards < 0 {
		return nil, fmt.Errorf("exp: invalid shard count %d (want >= 1, or 0 for the default)", o.Shards)
	}
	o = o.withDefaults(e.DefFlows)
	if o.CacheVerify && o.Cache == nil {
		return nil, fmt.Errorf("exp: CacheVerify requires a Cache")
	}
	var cacheBefore cache.Stats
	if o.Cache != nil {
		cacheBefore = o.Cache.Stats()
	}
	res := e.Run(o)
	if len(o.Schemes) > 0 && len(res.Rows) == 0 {
		return nil, fmt.Errorf("exp: %s: %w (schemes: %s)", id, ErrNoRows, strings.Join(o.Schemes, ","))
	}
	for _, msg := range o.errs.drain() {
		res.Notes = append(res.Notes, "cell failed: "+msg)
	}
	res.Events = atomic.LoadUint64(o.events)
	res.Sharding = o.sharding.st
	if o.Cache != nil {
		d := o.Cache.Stats().Delta(cacheBefore)
		res.Cache = &d
	}
	return res, nil
}

// checkSchemes rejects a scheme filter name that no experiment runs,
// which would otherwise drop its cell silently. The names are the scheme
// table's and the §2.3 oracle's "hypothetical".
func checkSchemes(names []string) error {
	valid := []string{"hypothetical"}
	for k := range baseSchemes() {
		valid = append(valid, k)
	}
	sort.Strings(valid)
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return fmt.Errorf("exp: unknown scheme %q (valid: %s)", n, strings.Join(valid, ", "))
		}
	}
	return nil
}

// checkScale rejects a workload scale no run can honour: a negative flow
// count, or a negative, NaN or infinite load. Zero selects the default.
func checkScale(flows int, load float64) error {
	if flows < 0 {
		return fmt.Errorf("exp: invalid flow count %d (want >= 1, or 0 for the default)", flows)
	}
	if load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return fmt.Errorf("exp: invalid load %v (want a finite load > 0, or 0 for the default)", load)
	}
	return nil
}

// Config names one single-cell run — the public ppt.Run and RunDetailed
// configuration, which the root package aliases. Zero fields take the
// defaults noted.
type Config struct {
	Transport string  // one of ppt.Transports(); default "ppt"
	Topology  string  // one of the ppt.Topology* names; default "sim"
	Workload  string  // one of ppt.Workloads(); default "websearch"
	Load      float64 // fraction of receiver bandwidth; default 0.5
	Flows     int     // number of flows; default 500
	Seed      int64   // workload seed; default 1

	// Incast, when > 0, uses an N-to-1 pattern with this many senders
	// instead of all-to-all.
	Incast int

	// SendBuf models the TCP send buffer in bytes: it caps each flow's
	// first syscall (PPT's identification) and PPT's LCP reach
	// (0 = unbounded, the paper's 2GB).
	SendBuf int64
}

func (c Config) withDefaults() Config {
	if c.Transport == "" {
		c.Transport = "ppt"
	}
	if c.Topology == "" {
		c.Topology = "sim"
	}
	if c.Workload == "" {
		c.Workload = "websearch"
	}
	if c.Load == 0 {
		c.Load = 0.5
	}
	if c.Flows == 0 {
		c.Flows = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RunCell simulates cfg to completion and returns its summary and
// environment (for detailed metrics). The transport resolves in
// baseSchemes and the topology in topologies, and the cell runs through
// execute like every experiment cell: a leaf-spine cell on the windowed
// engine with one worker, so it reports what the same cell reports in
// an experiment.
func RunCell(cfg Config) (stats.Summary, *transport.Env, error) {
	if err := checkScale(cfg.Flows, cfg.Load); err != nil {
		return stats.Summary{}, nil, err
	}
	cfg = cfg.withDefaults()
	dist, err := workload.ByName(cfg.Workload)
	if err != nil {
		return stats.Summary{}, nil, err
	}
	fab, ok := topologies()[cfg.Topology]
	if !ok {
		return stats.Summary{}, nil, fmt.Errorf("ppt: unknown topology %q", cfg.Topology)
	}
	proto, ok := baseSchemes()[cfg.Transport]
	if !ok {
		return stats.Summary{}, nil, fmt.Errorf("ppt: unknown transport %q (see Transports())", cfg.Transport)
	}
	var pattern workload.Pattern = workload.AllToAll{N: fab.hosts}
	if cfg.Incast > 0 {
		pattern = workload.Incast{N: fab.hosts, Target: 0, Senders: cfg.Incast}
	}
	sum, _, env, _ := execute(runSpec{
		fab: fab, proto: proto, dist: dist, pattern: pattern,
		load: cfg.Load, flows: cfg.Flows, seed: cfg.Seed, sendBuf: cfg.SendBuf,
	})
	return sum, env, nil
}
