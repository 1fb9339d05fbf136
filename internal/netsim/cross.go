package netsim

import (
	"fmt"
	"slices"

	"ppt/internal/sim"
)

// Cross-shard wires for the conservative time-windowed parallel engine
// (DESIGN.md §7.3). A wire whose two ends live in different shards of a
// partitioned fabric cannot propagate through the local scheduler: the
// receiving device belongs to another shard's event loop. Instead the
// wire is a FIFO of (due, packet). The sending port appends each
// departure, due at txDone+Delay; the run driver publishes the window's
// departures to the receiving side at the barrier (MergeWindows); and
// the destination shard's Inbox delivers them at their due times.
//
// Conservativeness: a departure at t is decided in the round whose
// window holds t, so it is due beyond every peer's horizon of that round
// (DESIGN.md §7.6), and publishing never arms a delivery in a shard's
// past.
//
// Determinism: at each instant an inbox delivers the heads of its wires
// due then, in source-shard order. One wire's due times strictly
// increase, and SetCross allows one wire per ordered shard pair, so
// deliveries follow the total order (due, source shard, FIFO), which the
// partition fixes whatever the worker count.

// crossPkt is one departure on a cross wire.
type crossPkt struct {
	at  sim.Time // due at the far end
	pkt *Packet
}

// crossWire is one cross-shard wire. Between barriers out belongs to the
// sending shard and the rest to the receiving one.
type crossWire struct {
	out       []crossPkt // this window's departures
	port      *Port      // the sending port; its peer receives the packets
	in        []crossPkt // published departures; in[next:] are undelivered
	next      int
	delivered int64
}

// push appends a departure due at at. It lives here rather than inline
// in Port.start so that profiles charge the wire to this file, which
// cmd/pptbench's layers count as netsim.cross.
func (w *crossWire) push(at sim.Time, pkt *Packet) {
	w.out = append(w.out, crossPkt{at: at, pkt: pkt})
}

// onWire counts the packets started and not yet delivered.
func (w *crossWire) onWire() int { return len(w.out) + len(w.in) - w.next }

// Outbox lists one shard's cross ports without INT. No event stands for
// their owed departures: the run driver counts the earliest in the
// shard's eff (NextDeparture) and decides them at the end of each of the
// shard's windows (Advance).
type Outbox struct {
	shard int32
	ports []*Port
}

// NewOutbox returns the outbox for the given source shard.
func NewOutbox(shard int) *Outbox { return &Outbox{shard: int32(shard)} }

// NextDeparture returns the earliest departure a backlogged port of the
// outbox owes, its busyUntil, or sim.MaxTime when none does.
func (o *Outbox) NextDeparture() sim.Time {
	t := sim.MaxTime
	for _, p := range o.ports {
		if p.totalQueued > 0 && p.busyUntil < t {
			t = p.busyUntil
		}
	}
	return t
}

// Advance starts every departure the outbox's ports owe through limit.
func (o *Outbox) Advance(limit sim.Time) {
	for _, p := range o.ports {
		p.advance(limit)
	}
}

// Inbox delivers the cross wires into one shard from one timer, armed
// at the earliest head. wires is in source-shard order; heads[i] is the
// due time of wires[i]'s next undelivered packet, or sim.MaxTime, kept
// in one array so a fire touches only the wires it delivers from.
type Inbox struct {
	sched   *sim.Scheduler
	srcs    []int32 // each wire's source shard
	wires   []*crossWire
	heads   []sim.Time
	timer   sim.Timer
	armedAt sim.Time
	fireFn  func()
}

// NewInbox returns an inbox delivering into the given shard scheduler.
func NewInbox(s *sim.Scheduler) *Inbox {
	in := &Inbox{sched: s}
	in.fireFn = in.fire
	return in
}

func (in *Inbox) add(src int32, w *crossWire) {
	i, dup := slices.BinarySearch(in.srcs, src)
	if dup {
		panic(fmt.Sprintf("netsim: port %s is a second cross wire from shard %d into one inbox", w.port.name, src))
	}
	in.srcs = slices.Insert(in.srcs, i, src)
	in.wires = slices.Insert(in.wires, i, w)
	in.heads = slices.Insert(in.heads, i, sim.MaxTime)
}

// fire delivers every wire head due now, in source-shard order, and
// re-arms at the next earliest head.
func (in *Inbox) fire() {
	now := in.sched.Now()
	next := sim.MaxTime
	for i, at := range in.heads {
		if at == now {
			w := in.wires[i]
			for w.next < len(w.in) && w.in[w.next].at == now {
				pkt := w.in[w.next].pkt
				w.next++
				w.delivered++
				w.port.deliverCross(pkt)
			}
			at = sim.MaxTime
			if w.next < len(w.in) {
				at = w.in[w.next].at
			}
			in.heads[i] = at
		}
		next = min(next, at)
	}
	if next != sim.MaxTime {
		in.armedAt = next
		in.timer = in.sched.At(next, in.fireFn)
	}
}

// MergeWindows publishes each cross wire's departures of the window just
// run to its receiving side, swapping the two buffers when that side is
// drained and appending otherwise, and re-arms each inbox that got
// packets if its timer is idle or the new earliest head comes first. It
// runs at a barrier, with every shard quiescent. Returns the number of
// packets published.
func MergeWindows(inboxes []*Inbox) int {
	moved := 0
	for _, in := range inboxes {
		n := 0
		for i, w := range in.wires {
			if len(w.out) == 0 {
				continue
			}
			n += len(w.out)
			if w.next == len(w.in) {
				w.in, w.out = w.out, w.in[:0]
				in.heads[i] = w.in[0].at
			} else {
				k := copy(w.in, w.in[w.next:])
				w.in = append(w.in[:k], w.out...)
				w.out = w.out[:0]
			}
			w.next = 0
		}
		if n == 0 {
			continue
		}
		moved += n
		if head := slices.Min(in.heads); !in.timer.Pending() || head < in.armedAt {
			in.timer.Stop()
			in.armedAt = head
			in.timer = in.sched.At(head, in.fireFn)
		}
	}
	return moved
}
