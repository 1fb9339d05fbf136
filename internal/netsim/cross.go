package netsim

import (
	"ppt/internal/sim"
)

// Cross-shard wires for the conservative time-windowed parallel engine
// (see DESIGN.md §7.3). A partitioned fabric gives every shard its own
// scheduler; a wire whose two ends live in different shards cannot use
// the normal Port wire/After propagation path, because the receiving
// device belongs to another shard's event loop. Instead the sending
// port deposits the packet into its shard's Outbox, stamped with the
// absolute delivery time now+Delay, and the run driver moves deposits
// into the destination shards' Inboxes at the next window barrier.
//
// Conservativeness: windows are at most min(Delay over cross-shard
// wires) wide, so a packet transmitted inside window k is always
// delivered at or after the k+1 barrier — the merge never has to insert
// an event into a shard's past.
//
// Determinism: delivery order within a shard is the canonical
// (At, Src, Seq) total order, where Src is the depositing shard and Seq
// a per-source deposit counter that never resets. The key is a total
// order (Seq never repeats within a Src), so the sorted merge result is
// independent of outbox iteration order and of how many worker threads
// executed the window.

// CrossEntry is one packet in flight across a shard boundary.
type CrossEntry struct {
	At   sim.Time // absolute delivery time at the far end of the wire
	Src  int32    // depositing shard
	Seq  uint64   // per-source deposit counter (merge tie-break)
	Dst  int32    // destination shard
	Pkt  *Packet
	Port *Port // the cross-shard port; its peer receives Pkt
}

// Outbox collects the packets one shard sent across its boundary during
// the current window. It is written only by that shard's event loop and
// drained only by the driver at the barrier, so it needs no locking.
type Outbox struct {
	shard   int32
	seq     uint64
	entries []CrossEntry
}

// NewOutbox returns the outbox for the given source shard.
func NewOutbox(shard int) *Outbox { return &Outbox{shard: int32(shard)} }

// deposit records a packet leaving the shard on port p, due at the
// far end at time at.
func (o *Outbox) deposit(at sim.Time, pkt *Packet, p *Port, dst int32) {
	o.entries = append(o.entries, CrossEntry{At: at, Src: o.shard, Seq: o.seq, Dst: dst, Pkt: pkt, Port: p})
	o.seq++
}

// Inbox holds the cross-shard packets due for delivery inside one
// shard, sorted by the canonical order. The driver appends and sorts at
// barriers (while the shard is quiescent); the shard's own event loop
// pops due entries via the armed timer, advancing head past them (the
// delivered prefix pending[:head] is compacted away at the next barrier
// that touches the inbox, so a fire never shifts the slice).
type Inbox struct {
	sched   *sim.Scheduler
	pending []CrossEntry
	head    int
	timer   sim.Timer
	armedAt sim.Time
	dirty   bool
	fireFn  func()
	// sorted is the length of the already-canonical prefix of pending
	// when a barrier merge begins (everything outside MergeWindows is
	// fully sorted, so this is just len(pending) at first append);
	// scratch is the reusable suffix buffer of the batched merge.
	sorted  int
	scratch []CrossEntry
}

// NewInbox returns an inbox delivering into the given shard scheduler.
func NewInbox(s *sim.Scheduler) *Inbox {
	in := &Inbox{sched: s}
	in.fireFn = in.fire
	return in
}

// fire delivers every pending entry due now (already in canonical
// order) and re-arms for the next one.
func (in *Inbox) fire() {
	now := in.sched.Now()
	n := in.head
	for n < len(in.pending) && in.pending[n].At == now {
		e := &in.pending[n]
		e.Port.deliverCross(e.Pkt)
		*e = CrossEntry{}
		n++
	}
	if n == len(in.pending) {
		in.pending = in.pending[:0]
		in.head = 0
		return
	}
	in.head = n
	in.armedAt = in.pending[n].At
	in.timer = in.sched.At(in.armedAt, in.fireFn)
}

// compact drops the delivered prefix pending[:head].
func (in *Inbox) compact() {
	if in.head == 0 {
		return
	}
	n := copy(in.pending, in.pending[in.head:])
	clear(in.pending[n:])
	in.pending = in.pending[:n]
	in.head = 0
}

// MergeWindows moves every outbox deposit into the destination inboxes,
// restores each touched inbox's canonical (At, Src, Seq) order, and
// (re-)arms delivery timers. It must run at a window barrier, when
// every shard's event loop is quiescent; every merged entry's At lies
// at or beyond the destination's next horizon, so arming is never in a
// shard's past. Returns the number of entries moved.
//
// The drain is batched: each inbox's pending set is a sorted prefix
// (everything that survived earlier barriers — the invariant outside
// this function) plus this barrier's appended suffix. Only the suffix
// is sorted; when the suffix doesn't already follow the prefix (rare —
// deposits are usually later than everything still pending) the two
// runs are merged backward in place through a reused per-inbox scratch
// buffer. That replaces the old full re-sort per dirty inbox per
// barrier, which was the dominant barrier cost at high shard counts.
func MergeWindows(outboxes []*Outbox, inboxes []*Inbox) int {
	moved := 0
	for _, o := range outboxes {
		moved += len(o.entries)
		for i := range o.entries {
			e := &o.entries[i]
			in := inboxes[e.Dst]
			if !in.dirty {
				in.dirty = true
				in.compact()
				in.sorted = len(in.pending)
			}
			in.pending = append(in.pending, *e)
			*e = CrossEntry{}
		}
		o.entries = o.entries[:0]
	}
	for _, in := range inboxes {
		if !in.dirty {
			continue
		}
		in.dirty = false
		p := in.pending
		suffix := p[in.sorted:]
		in.sortSuffix(suffix)
		if in.sorted > 0 && crossLess(&suffix[0], &p[in.sorted-1]) {
			in.mergeRuns()
		}
		head := p[0].At
		if !in.timer.Pending() || head < in.armedAt {
			in.timer.Stop()
			in.armedAt = head
			in.timer = in.sched.At(head, in.fireFn)
		}
	}
	return moved
}

// mergeRuns merges pending's sorted prefix [0:sorted) and sorted
// suffix [sorted:] in place, backward, staging the suffix in the
// reusable scratch buffer (suffix-sized — merges only pay for what the
// barrier appended, not for the whole pending set).
func (in *Inbox) mergeRuns() {
	p := in.pending
	in.scratch = append(in.scratch[:0], p[in.sorted:]...)
	i, j := in.sorted-1, len(in.scratch)-1
	for k := len(p) - 1; j >= 0; k-- {
		if i >= 0 && crossLess(&in.scratch[j], &p[i]) {
			p[k] = p[i]
			i--
		} else {
			p[k] = in.scratch[j]
			j--
		}
	}
}

// crossLess is the canonical merge order. (At, Src, Seq) is a strict
// total order — Seq never repeats within a Src — so every comparison
// sort produces the same permutation and stability is irrelevant.
func crossLess(a, b *CrossEntry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// sortSuffix sorts a barrier's appended suffix into canonical order in
// place without allocating: insertion-sorted blocks, then bottom-up
// merges of adjacent blocks through the reusable scratch buffer. Each
// source shard deposits in transmit-start order, due txDone + Delay, so
// its entries arrive nearly sorted; blocks come out of insertion sort in
// near-linear time, and a merge whose halves are already in order is
// skipped. Worst case stays O(n log n).
func (in *Inbox) sortSuffix(p []CrossEntry) {
	const block = 16
	for lo := 0; lo < len(p); lo += block {
		insertionSortCross(p[lo:min(lo+block, len(p))])
	}
	for w := block; w < len(p); w *= 2 {
		for lo := 0; lo+w < len(p); lo += 2 * w {
			in.mergeAdjacent(p[lo:min(lo+2*w, len(p))], w)
		}
	}
}

func insertionSortCross(p []CrossEntry) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && crossLess(&p[j], &p[j-1]); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// mergeAdjacent merges the sorted runs p[:mid] and p[mid:] in place,
// staging the left run in scratch.
func (in *Inbox) mergeAdjacent(p []CrossEntry, mid int) {
	if !crossLess(&p[mid], &p[mid-1]) {
		return
	}
	in.scratch = append(in.scratch[:0], p[:mid]...)
	i, j, k := 0, mid, 0
	for i < len(in.scratch) && j < len(p) {
		if crossLess(&p[j], &in.scratch[i]) {
			p[k] = p[j]
			j++
		} else {
			p[k] = in.scratch[i]
			i++
		}
		k++
	}
	copy(p[k:], in.scratch[i:])
}
