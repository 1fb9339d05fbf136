package stats

import "ppt/internal/sim"

// WindowFold folds per-shard completion logs into the caller's master
// collector at windowed-run barriers, in memory or spilling, so a
// bounded-memory million-flow run composes with the sharded engine.
//
// The windowed driver calls Fold with the round's granted safe bound
// (the minimum of the new per-shard floors): every record whose End
// precedes the bound is final — future completions in shard d happen at
// or after floors[d] — while later records stay in their shard's log
// for a later fold. Each drained batch is sorted in the canonical
// (End, Start, FlowID) order and fed to the master record by record.
//
// Determinism argument (DESIGN.md §7.7): per-shard logs are
// nondecreasing in End (completions append in execution order), and the
// safe bounds strictly time-partition the batches — records with equal
// End always land in the same batch. The concatenation of canonically
// sorted, time-partitioned batches is therefore exactly the globally
// sorted sequence MergeCanonical would produce, so the master's record
// log, or a spilling master's fold order — and with it every running
// float sum and the small-FCT multiset the P99 selection reads — is
// bit-identical to MergeCanonical's at every shard count and chunk size.
type WindowFold struct {
	master *Collector
	batch  []FCTRecord
}

// NewWindowFold wraps an empty master collector.
func NewWindowFold(master *Collector) *WindowFold {
	if master.Count() > 0 {
		panic("stats: NewWindowFold on a non-empty collector")
	}
	return &WindowFold{master: master}
}

// Fold drains every record with End < safe from the shard collectors
// into the master, in canonical order. Caller guarantees no shard can
// complete a flow before safe from here on.
func (w *WindowFold) Fold(safe sim.Time, shards []*Collector) {
	w.fold(shards, safe, false)
}

// FoldAll drains everything that remains — the run is over.
func (w *WindowFold) FoldAll(shards []*Collector) {
	w.fold(shards, 0, true)
}

func (w *WindowFold) fold(shards []*Collector, safe sim.Time, all bool) {
	batch := w.batch[:0]
	for _, c := range shards {
		if c.sp != nil {
			panic("stats: WindowFold from a spilling shard collector")
		}
		recs := c.records
		k := len(recs)
		if !all {
			// The log is nondecreasing in End, so the final records are a
			// contiguous prefix.
			k = 0
			for k < len(recs) && recs[k].End < safe {
				k++
			}
		}
		if k == 0 {
			continue
		}
		batch = append(batch, recs[:k]...)
		m := copy(recs, recs[k:])
		c.records = recs[:m]
	}
	w.batch = batch
	if len(batch) == 0 {
		return
	}
	sortCanonical(batch)
	// Keep a spilling master's resident log inside its chunk across the
	// feed: a partial early spill folds the very same prefix in the very
	// same order a boundary-aligned spill would, so flushing here changes
	// no sum, no spilled byte, and no selection input — only the moment
	// the fold happens.
	if sp := w.master.sp; sp != nil && len(sp.resident) > 0 && len(sp.resident)+len(batch) > sp.chunk {
		sp.spillChunk()
	}
	for i := range batch {
		r := &batch[i]
		w.master.Complete(r.FlowID, r.Size, r.Start, r.End)
	}
	w.batch = batch[:0]
}

// sortCanonical orders records by canonLess without allocating: an
// insertion sort for window-sized batches, heapsort beyond (same shape
// as netsim's cross-window sort). canonLess is a strict total order, so
// the output sequence is the unique sorted order whatever the
// algorithm.
func sortCanonical(p []FCTRecord) {
	if len(p) <= 24 {
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && canonLess(&p[j], &p[j-1]); j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
		return
	}
	n := len(p)
	for i := n/2 - 1; i >= 0; i-- {
		siftCanonical(p, i, n)
	}
	for end := n - 1; end > 0; end-- {
		p[0], p[end] = p[end], p[0]
		siftCanonical(p, 0, end)
	}
}

func siftCanonical(p []FCTRecord, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && canonLess(&p[child], &p[child+1]) {
			child++
		}
		if !canonLess(&p[root], &p[child]) {
			return
		}
		p[root], p[child] = p[child], p[root]
		root = child
	}
}
