package exp

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"ppt/internal/cache"
	"ppt/internal/stats"
)

// This file is the parallel experiment runner. Every simulation cell —
// one (scheme × repeat × load point) execution — is a pure function of
// its runSpec: it builds a private fabric, scheduler, and Env, so cells
// are independent and can run on separate goroutines. Experiments submit
// their cells to a pool, run it, and then reduce the index-addressed
// outputs in program order, which makes the assembled rows (and hence
// Render()/CSV() output) byte-identical at any worker count.

// errSink collects cell failures across one experiment run; Options
// carries it (by pointer) into every nested compare/sweep so RunByID can
// surface failures as result notes. A nil sink logs to stderr instead.
type errSink struct {
	mu   sync.Mutex
	msgs []string
}

func (s *errSink) add(msg string) {
	if s == nil {
		fmt.Fprintln(os.Stderr, "exp: "+msg)
		return
	}
	s.mu.Lock()
	s.msgs = append(s.msgs, msg)
	s.mu.Unlock()
}

func (s *errSink) drain() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := s.msgs
	s.msgs = nil
	s.mu.Unlock()
	return out
}

// poolJob is one submitted cell. A non-nil return from fn fails the
// cell (reported through the error sink in submission order).
type poolJob struct {
	label string
	fn    func() error
	err   error
}

// cellOut is the landing slot for one execute() cell: the summary plus
// the extras its observer computed. Deliberately no *Env — a cache hit
// replays a cell without ever building an environment, so everything a
// caller needs must land here (via the observer) during the compute
// itself.
type cellOut struct {
	sum   stats.Summary
	extra map[string]float64
	job   *poolJob
}

func (c *cellOut) failed() bool { return c.job.err != nil }

// rowCells are the cells of one table row, one per repeat.
type rowCells struct {
	label string
	outs  []*cellOut
}

// mean reduces the row to the mean of its repeats that did not fail:
// the Summary by meanSummary, each extra by its mean. A row whose every
// repeat failed (each reported through the error sink) stays, empty, so
// the table's shape is stable.
func (r rowCells) mean() Row {
	row := Row{Label: r.label}
	var sums []stats.Summary
	for _, c := range r.outs {
		if c.failed() {
			continue
		}
		sums = append(sums, c.sum)
		for k, v := range c.extra {
			if row.Extra == nil {
				row.Extra = make(map[string]float64, len(c.extra))
			}
			row.Extra[k] += v
		}
	}
	if len(sums) == 0 {
		return row
	}
	row.Sum = meanSummary(sums)
	for k := range row.Extra {
		row.Extra[k] /= float64(len(sums))
	}
	return row
}

// pool fans submitted cells across worker goroutines. Submission order
// is preserved: each job writes only its own slot, and failures are
// reported in submission order after the run, so output never depends on
// goroutine scheduling. Rows reduce after the run, in submission order.
type pool struct {
	opts Options
	jobs []*poolJob
	rows []rowCells
}

func newPool(o Options) *pool { return &pool{opts: o} }

// submit registers fn as one cell. fn runs exactly once during run(),
// possibly on another goroutine; a panic inside it — or a returned
// error — fails the cell (the job's err) instead of the process.
func (p *pool) submit(label string, fn func() error) *poolJob {
	j := &poolJob{label: label, fn: fn}
	p.jobs = append(p.jobs, j)
	return j
}

// row submits one table row: spec at Options.Repeats seeds, spec.seed,
// spec.seed+1, …, each a cell. run returns the row as the mean of its
// repeats. A row whose scheme (schemeOf) the Schemes filter leaves out
// is not submitted.
func (p *pool) row(label string, spec runSpec) {
	if !p.opts.wants(schemeOf(spec.proto)) {
		return
	}
	r := rowCells{label: label, outs: make([]*cellOut, max(p.opts.Repeats, 1))}
	for rep := range r.outs {
		cell := spec
		cell.seed += int64(rep)
		r.outs[rep] = p.submitSpec(fmt.Sprintf("%s load=%g seed=%d", label, cell.load, cell.seed), cell)
	}
	p.rows = append(p.rows, r)
}

// compare submits one row per named scheme: spec run under the scheme's
// protocol, labelled with the scheme's name and suffix. A sweep calls it
// once per point, each point with its suffix.
func (p *pool) compare(spec runSpec, names []string, suffix string) {
	all := baseSchemes()
	for _, name := range names {
		if proto, ok := all[name]; ok {
			spec.proto = proto
			p.row(name+suffix, spec)
		}
	}
}

// submitSpec registers one execute() cell and returns its output slot,
// valid after run(). With a result cache configured the cell is
// answered content-addressed by specDesc: execute runs only on a miss
// (or in verify mode), and its summary and extras are the stored value.
// Event and sharding accounting stays inside that computation, so a hit
// deliberately contributes zero events (nothing was simulated). A
// verify-mode divergence fails the cell; pptsim turns the mismatch count
// into a non-zero exit.
func (p *pool) submitSpec(label string, spec runSpec) *cellOut {
	o := p.opts
	out := &cellOut{}
	spec.shards = o.Shards
	compute := func() cache.Value {
		sum, extra, env, events := execute(spec)
		o.addEvents(events)
		o.sharding.add(env.ShardStats)
		return cache.Value{Sum: sum, Extra: extra}
	}
	out.job = p.submit(label, func() error {
		var v cache.Value
		if o.Cache == nil {
			v = compute()
		} else {
			key := o.Cache.NewKey(specDesc(spec))
			var res cache.Outcome
			if v, res = o.Cache.Do(key, o.CacheVerify, compute); res.Mismatch {
				return fmt.Errorf("cache verify mismatch: stored entry %s diverges from fresh execution", key)
			}
		}
		out.sum, out.extra = v.Sum, v.Extra
		return nil
	})
	if o.StrictShards && o.Shards > 1 && !spec.fab.partitionable() {
		// Fail the cell up front with an error naming the topology:
		// a single-switch fabric would otherwise silently ignore the
		// shard request and run monolithic.
		out.job.err = fmt.Errorf(
			"topology %q does not partition: -shards %d needs a multi-switch fabric (topo.LeafSpine partitions; topo.Star is single-switch)",
			spec.fab.name, o.Shards)
	}
	return out
}

// workers resolves the concurrency: Options.Parallel, defaulting to
// GOMAXPROCS, never more than there are jobs.
func (p *pool) workers() int {
	w := p.opts.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(p.jobs) {
		w = len(p.jobs)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// run executes every submitted job, blocks until all are done, and
// returns the submitted rows.
func (p *pool) run() []Row {
	total := len(p.jobs)
	if total == 0 {
		return nil
	}
	var mu sync.Mutex
	var done int
	finished := func() {
		if p.opts.OnProgress == nil {
			return
		}
		mu.Lock()
		done++
		p.opts.OnProgress(done, total)
		mu.Unlock()
	}
	if w := p.workers(); w == 1 {
		for _, j := range p.jobs {
			j.runOne()
			finished()
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for k := range idx {
					p.jobs[k].runOne()
					finished()
				}
			}()
		}
		for k := range p.jobs {
			idx <- k
		}
		close(idx)
		wg.Wait()
	}
	// Report failures in submission order, not completion order.
	for _, j := range p.jobs {
		if j.err != nil {
			p.opts.errs.add(fmt.Sprintf("%s: %v", j.label, j.err))
		}
	}
	rows := make([]Row, len(p.rows))
	for i, r := range p.rows {
		rows[i] = r.mean()
	}
	return rows
}

func (j *poolJob) runOne() {
	if j.err != nil {
		// Pre-failed at submission (e.g. a strict-shards topology
		// mismatch): keep the error, skip the work.
		return
	}
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("panic: %v", r)
		}
	}()
	j.err = j.fn()
}
