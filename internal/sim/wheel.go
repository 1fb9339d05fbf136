package sim

import "math/bits"

// Hierarchical timing wheel (Varghese–Lauck) over the int64 picosecond
// clock: 8 levels of 256 buckets, where level l, slot v holds every
// pending event whose time t satisfies
//
//	digits of t above byte l  ==  the same digits of the wheel cursor, and
//	byte l of t               ==  v
//
// i.e. events are filed by the most-significant byte in which their time
// differs from the cursor `cur`. Near events land in level 0 (one exact
// timestamp per bucket), far events in high levels (coarse 2^(8l)-ps
// windows) that cascade lazily down as the cursor advances. Buckets are
// intrusive doubly-linked lists threaded through the scheduler's inline
// slot array, so schedule/stop/pop are pointer splices — amortized O(1),
// allocation-free, with O(1) Stop by construction.
//
// Determinism. Pop order must be exactly the (time, seq) total order,
// where seq is insertion order; no event stores it. The wheel gets this
// from three structural facts:
//
//  1. Level separation: a level-l event (l >= 1) has byte l strictly
//     above the cursor's, with all higher bytes equal, so every event in
//     a nonzero level fires strictly after every level-0 event. The
//     earliest pending event is therefore always in the lowest occupied
//     level's lowest occupied slot.
//  2. Empty cascade targets: the cursor only advances into the lowest
//     occupied level, so when a bucket cascades, every level below it is
//     empty. An order-preserving drain (head to tail, append) therefore
//     cannot interleave cascaded events with earlier residents.
//  3. Same-time events stay in seq order within any bucket: direct
//     inserts append in global seq order, and for a fixed time the
//     filing bucket is a pure function of the current cursor, so a
//     later same-time insert lands behind the earlier one — either in
//     the same bucket directly, or after the earlier event has already
//     cascaded into exactly the bucket the later insert computes.
//
// A level-0 bucket holds one exact timestamp, which enables batched
// dispatch: after a pop, the bucket is remembered as "hot" and drained
// head-first on subsequent pops without re-scanning the index. New
// same-instant inserts append to the hot bucket (preserving FIFO); any
// later-time insert files elsewhere and cannot overtake the hot bucket.
//
// The spill list handles the one case where an insert can land behind
// the cursor: RunUntil may abort a descent at its deadline after the
// cursor has already advanced past `now` (cursor moves are committed
// window-by-window). A subsequent insert between now and the cursor
// would have no valid bucket, so it goes to a small list kept sorted by
// (time, seq); spill times are all below the cursor, hence below every
// wheel-resident event, so the spill drains first and ordering is
// preserved. In steady state the spill is empty and costs one nil check.
const (
	wheelBits     = 8
	wheelSlots    = 1 << wheelBits // 256 slots per level
	wheelLevels   = 8              // 8 levels x 8 bits span the full clock
	wheelBuckets  = wheelLevels * wheelSlots
	wheelSlotMask = wheelSlots - 1
	spillBucket   = int32(wheelBuckets) // pseudo bucket id of the spill list
	noSlot        = int32(-1)
)

// bucketList is an intrusive doubly-linked list of slot ids; links live
// in the slot array's prev/next fields.
type bucketList struct{ head, tail int32 }

type wheelState struct {
	// Hot metadata first so cursor, counts and the occupancy index
	// share a handful of cache lines; the 16KB bucket array goes last.
	cur      uint64                               // cursor: <= every wheel-resident event time
	count    int                                  // pending events, spill included
	hot      int32                                // level-0 bucket being batch-drained, or noSlot
	lvlCount [wheelLevels]int32                   // events resident per level
	occ      [wheelLevels][wheelSlots / 64]uint64 // per-level occupancy bitmaps
	spill    bucketList
	buckets  [wheelBuckets]bucketList
}

func newWheelState() *wheelState {
	w := &wheelState{hot: noSlot, spill: bucketList{noSlot, noSlot}}
	for i := range w.buckets {
		w.buckets[i] = bucketList{noSlot, noSlot}
	}
	return w
}

// wheelInsert files a freshly allocated slot. Times behind the cursor
// (possible only after an aborted deadline descent) go to the spill.
func (s *Scheduler) wheelInsert(id int32, t Time) {
	w := s.wheel
	if uint64(t) < w.cur {
		s.spillInsert(id, t)
	} else {
		s.wheelFile(id, uint64(t))
	}
	w.count++
}

// wheelFile appends id to the bucket its time selects against the
// current cursor: level = most-significant differing byte, slot = that
// byte of t.
func (s *Scheduler) wheelFile(id int32, t uint64) {
	w := s.wheel
	lvl := uint(0)
	if d := t ^ w.cur; d != 0 {
		lvl = uint(63-bits.LeadingZeros64(d)) >> 3
	}
	lvl &= wheelLevels - 1 // free; lets the compiler drop bounds checks
	v := uint(t>>(lvl*wheelBits)) & wheelSlotMask
	b := int32(lvl)<<wheelBits | int32(v)
	w.lvlCount[lvl]++
	l := &w.buckets[(lvl<<wheelBits|v)&(wheelBuckets-1)]
	e := &s.events[id]
	e.where = b
	e.next = noSlot
	e.prev = l.tail
	if l.tail != noSlot {
		s.events[l.tail].next = id
	} else {
		l.head = id
		w.occ[lvl][v>>6] |= 1 << (v & 63)
	}
	l.tail = id
}

// spillInsert places id into the sorted spill list. Walking from the
// tail is right for the common pattern of roughly increasing times, and
// the list only ever holds the handful of events scheduled between an
// aborted descent and the next pop.
func (s *Scheduler) spillInsert(id int32, t Time) {
	w := s.wheel
	e := &s.events[id]
	e.where = spillBucket
	// Among equal times the new event has the largest seq, so it goes
	// after every existing event with at <= t.
	prev := w.spill.tail
	for prev != noSlot && s.events[prev].at > t {
		prev = s.events[prev].prev
	}
	if prev == noSlot {
		e.prev = noSlot
		e.next = w.spill.head
		if w.spill.head != noSlot {
			s.events[w.spill.head].prev = id
		} else {
			w.spill.tail = id
		}
		w.spill.head = id
	} else {
		e.prev = prev
		e.next = s.events[prev].next
		s.events[prev].next = id
		if e.next != noSlot {
			s.events[e.next].prev = id
		} else {
			w.spill.tail = id
		}
	}
}

// wheelUnlink splices id out of whichever list holds it (bucket or
// spill) and maintains the occupancy bitmap. O(1); used by both pop and
// Stop.
func (s *Scheduler) wheelUnlink(id int32) {
	w := s.wheel
	e := &s.events[id]
	b := e.where
	var l *bucketList
	if b == spillBucket {
		l = &w.spill
	} else {
		l = &w.buckets[b]
	}
	if e.prev != noSlot {
		s.events[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != noSlot {
		s.events[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	if b != spillBucket {
		lvl := int(b) >> wheelBits
		w.lvlCount[lvl]--
		if l.head == noSlot {
			v := int(b) & wheelSlotMask
			w.occ[lvl][v>>6] &^= 1 << (uint(v) & 63)
		}
	}
	w.count--
}

// scan finds the first occupied slot >= from at the given level.
func (w *wheelState) scan(lvl, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	wi := from >> 6
	mask := ^uint64(0) << (uint(from) & 63)
	for ; wi < wheelSlots/64; wi++ {
		if bm := w.occ[lvl][wi] & mask; bm != 0 {
			return wi<<6 | bits.TrailingZeros64(bm), true
		}
		mask = ^uint64(0)
	}
	return 0, false
}

// wheelCascade re-files every event of bucket b against the advanced
// cursor. All levels below b's are empty when this runs (the cursor
// only advances into the lowest occupied level), so the head-to-tail
// append drain preserves relative order exactly.
func (s *Scheduler) wheelCascade(b int32) {
	w := s.wheel
	l := &w.buckets[b]
	id := l.head
	l.head, l.tail = noSlot, noSlot
	lvl, v := int(b)>>wheelBits, int(b)&wheelSlotMask
	w.occ[lvl][v>>6] &^= 1 << (uint(v) & 63)
	for id != noSlot {
		next := s.events[id].next
		w.lvlCount[lvl]--
		s.wheelFile(id, uint64(s.events[id].at))
		id = next
	}
}

// popBucketHead unlinks the head event e of level-0 bucket l (slot v),
// maintaining the occupancy bit and counts. A head has no prev link, so
// this is the general wheelUnlink with the dead branches stripped; it
// exists because pop is the single hottest operation in the engine.
func (s *Scheduler) popBucketHead(l *bucketList, e *event, v int) {
	w := s.wheel
	if e.next != noSlot {
		s.events[e.next].prev = noSlot
		l.head = e.next
	} else {
		l.head, l.tail = noSlot, noSlot
		w.occ[0][v>>6] &^= 1 << (uint(v) & 63)
	}
	w.lvlCount[0]--
	w.count--
}

// wheelNextBound is the read-only twin of wheelNext's descent: it
// reports the exact earliest pending event time without popping,
// cascading, or moving the cursor. Exactness at level >= 1 rests on the
// same structural facts as pop order: the lowest occupied level holds
// the global minimum (level separation), within that level the first
// occupied slot at or above the cursor's digit holds the smallest
// byte-l prefix, and that bucket's residents differ only in bytes below
// l — so the minimum `at` over one bucket list IS the global minimum.
// The walk costs O(bucket residents); sparse high-level buckets hold a
// handful of events, and the sharded engine calls this once per
// window, not per event.
func (s *Scheduler) wheelNextBound() (Time, bool) {
	w := s.wheel
	if w.count == 0 {
		return 0, false
	}
	if id := w.spill.head; id != noSlot {
		return s.events[id].at, true
	}
	if h := w.hot; h != noSlot {
		if id := w.buckets[h].head; id != noSlot {
			return s.events[id].at, true
		}
	}
	if w.lvlCount[0] > 0 {
		v, ok := w.scan(0, int(w.cur)&wheelSlotMask)
		if !ok {
			panic("sim: timing wheel level-0 count/bitmap mismatch")
		}
		return s.events[w.buckets[int32(v)].head].at, true
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if w.lvlCount[lvl] == 0 {
			continue
		}
		shift := uint(lvl) * wheelBits
		from := (int(w.cur>>shift) & wheelSlotMask) + 1
		v, ok := w.scan(lvl, from)
		if !ok {
			panic("sim: timing wheel level count/bitmap mismatch")
		}
		l := &w.buckets[int32(lvl)<<wheelBits|int32(v)]
		min := s.events[l.head].at
		for id := s.events[l.head].next; id != noSlot; id = s.events[id].next {
			if at := s.events[id].at; at < min {
				min = at
			}
		}
		return min, true
	}
	panic("sim: timing wheel lost an event")
}

// wheelNext pops the earliest (time, seq) event not after deadline, or
// reports that none qualifies. The popped slot is out of the wheel but
// not yet released.
func (s *Scheduler) wheelNext(deadline Time) (int32, bool) {
	w := s.wheel
	// Spill events (if any) precede everything in the wheel proper.
	if id := w.spill.head; id != noSlot {
		if s.events[id].at > deadline {
			return 0, false
		}
		s.wheelUnlink(id)
		return id, true
	}
	// Batched dispatch: drain the hot level-0 bucket without touching
	// the index. Everything else in the wheel fires strictly later, and
	// same-instant inserts append behind the head in seq order.
	if h := w.hot; h != noSlot {
		if id := w.buckets[h].head; id != noSlot {
			e := &s.events[id]
			if e.at > deadline {
				return 0, false
			}
			w.cur = uint64(e.at)
			s.popBucketHead(&w.buckets[h], e, int(h))
			return id, true
		}
		w.hot = noSlot
	}
	for w.count > 0 {
		// Lowest occupied level-0 slot at or above the cursor's low
		// byte holds the global minimum (level separation). The
		// per-level counts skip the bitmap scans entirely on empty
		// levels; on occupied ones the scan always hits, because every
		// resident of level l files at a slot strictly above the
		// cursor's digit l (equal high digits and t >= cur force
		// digit l of t above the cursor's).
		if w.lvlCount[0] > 0 {
			v, ok := w.scan(0, int(w.cur)&wheelSlotMask)
			if !ok {
				panic("sim: timing wheel level-0 count/bitmap mismatch")
			}
			b := int32(v)
			id := w.buckets[b].head
			e := &s.events[id]
			if e.at > deadline {
				return 0, false
			}
			w.hot = b
			// Rebase the cursor onto the popped time so subsequent
			// filings see the tightest window. Same level-0 block, so
			// no resident event falls behind the cursor.
			w.cur = uint64(e.at)
			s.popBucketHead(&w.buckets[b], e, v)
			return id, true
		}
		// Advance: find the lowest occupied level, enter its first
		// occupied window at or above the cursor, cascade it, rescan.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if w.lvlCount[lvl] == 0 {
				continue
			}
			shift := uint(lvl) * wheelBits
			from := (int(w.cur>>shift) & wheelSlotMask) + 1
			v, ok := w.scan(lvl, from)
			if !ok {
				panic("sim: timing wheel level count/bitmap mismatch")
			}
			// Keep digits above lvl, set digit lvl to v, zero the rest.
			// (lvl==7 makes the keep-mask shift count 64, which Go
			// defines as 0, i.e. keep nothing — exactly right.)
			windowStart := w.cur&^(uint64(1)<<(shift+wheelBits)-1) | uint64(v)<<shift
			if windowStart > uint64(deadline) {
				// Nothing due by the deadline. The cursor may already
				// sit past `now` from committed windows; inserts behind
				// it go to the spill.
				return 0, false
			}
			b := int32(lvl)<<wheelBits | int32(v)
			if l := &w.buckets[b]; l.head == l.tail {
				// Single resident. Every level below is empty and
				// every other slot fires strictly later, so this is
				// the global minimum: pop it directly instead of
				// cascading it down level by level. This is the
				// common case whenever event spacing exceeds the
				// 256-ps level-0 window, i.e. almost always. (A
				// same-instant re-arm from its callback files at
				// level 0 against the rebased cursor and is found by
				// the level-0 count check on the next pop, so the hot
				// bucket is left alone here.)
				id := l.head
				if s.events[id].at > deadline {
					return 0, false
				}
				w.cur = uint64(s.events[id].at)
				// Sole occupant: unlink is just emptying the bucket.
				l.head, l.tail = noSlot, noSlot
				w.occ[lvl][v>>6] &^= 1 << (uint(v) & 63)
				w.lvlCount[lvl]--
				w.count--
				return id, true
			}
			w.cur = windowStart
			s.wheelCascade(b)
			cascaded = true
			break
		}
		if !cascaded {
			panic("sim: timing wheel lost an event")
		}
	}
	return 0, false
}
