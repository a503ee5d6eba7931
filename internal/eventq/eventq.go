// Package eventq provides the discrete-event priority queue that drives the
// simulator: a binary min-heap ordered by event time, with FIFO tie-breaking
// by insertion sequence so simulations are fully deterministic.
//
// The queue is generic over its payload type and stores items by value in a
// single backing slice, so steady-state Push/Pop perform no heap allocations
// (the slice grows amortized, like append) and the sift loops compare plain
// struct fields instead of going through an interface.
//
// Two additions let a caller keep only the events that can still happen.
// Reserve claims sequence numbers ahead of time: an event queued later
// under a reserved number pops exactly where it would have popped had it
// been pushed at reservation time, as long as it is queued before anything
// later than it pops. Slots hold at most one event each: SetSlot replaces
// the slot's queued event in place and ClearSlot removes it, so an event
// that stopped mattering leaves the queue at once instead of popping as a
// no-op. The simulator gives every core a slot for its next plan-segment
// boundary (see docs/PERFORMANCE.md).
package eventq

// Item is a queued event: an opaque payload scheduled at an absolute time.
type Item[P any] struct {
	Time    float64
	Payload P

	seq  uint64
	slot int32 // 1 + the slot the item occupies; 0 when it occupies none
}

// Queue is a deterministic time-ordered event queue over payloads of type P.
// The zero value is ready to use. Queue is not safe for concurrent use.
type Queue[P any] struct {
	h     []Item[P]
	seq   uint64
	slots []int32 // heap index of each slot's item, -1 when the slot is empty
}

// Len returns the number of pending events.
func (q *Queue[P]) Len() int { return len(q.h) }

// Push schedules payload at time t. Events pushed with equal times dequeue
// in insertion order.
func (q *Queue[P]) Push(t float64, payload P) {
	q.h = append(q.h, Item[P]{Time: t, Payload: payload, seq: q.seq})
	q.seq++
	q.up(len(q.h) - 1)
}

// Reserve claims the next n sequence numbers without queueing anything and
// returns the first of them. The claimed numbers belong to the caller, who
// may queue at most one event under each with SetSlot.
func (q *Queue[P]) Reserve(n int) uint64 {
	first := q.seq
	q.seq += uint64(n)
	return first
}

// SetSlot makes payload at time t, under a sequence number claimed with
// Reserve, the one queued event of slot s (a small non-negative integer),
// replacing the event the slot held, if any. Among equal-time events it
// dequeues by seq, not by when SetSlot was called.
func (q *Queue[P]) SetSlot(s int, t float64, seq uint64, payload P) {
	for len(q.slots) <= s {
		q.slots = append(q.slots, -1)
	}
	it := Item[P]{Time: t, Payload: payload, seq: seq, slot: int32(s) + 1}
	if i := int(q.slots[s]); i >= 0 {
		q.h[i] = it
		q.fix(i)
		return
	}
	q.h = append(q.h, it)
	q.slots[s] = int32(len(q.h) - 1)
	q.up(len(q.h) - 1)
}

// ClearSlot removes slot s's queued event, if it holds one.
func (q *Queue[P]) ClearSlot(s int) {
	if s < len(q.slots) && q.slots[s] >= 0 {
		q.removeAt(int(q.slots[s]))
	}
}

// Pop removes and returns the earliest event; ok is false when the queue is
// empty.
func (q *Queue[P]) Pop() (it Item[P], ok bool) {
	if len(q.h) == 0 {
		return it, false
	}
	return q.removeAt(0), true
}

// removeAt removes and returns the item at heap index i.
func (q *Queue[P]) removeAt(i int) Item[P] {
	it := q.h[i]
	if it.slot != 0 {
		q.slots[it.slot-1] = -1
	}
	last := len(q.h) - 1
	if i != last {
		q.h[i] = q.h[last]
		q.placed(i)
	}
	q.h[last] = Item[P]{} // release payload references held in the vacated element
	q.h = q.h[:last]
	if i != last {
		q.fix(i)
	}
	return it
}

// Peek returns the earliest event without removing it; ok is false when the
// queue is empty.
func (q *Queue[P]) Peek() (it Item[P], ok bool) {
	if len(q.h) == 0 {
		return it, false
	}
	return q.h[0], true
}

// Seq returns the item's insertion sequence number — the FIFO tie-break
// key. It is exposed so checkpointing can serialize the queue exactly and
// restore the identical pop order.
func (it Item[P]) Seq() uint64 { return it.seq }

// MakeItem builds an item with an explicit sequence number and slot (-1 for
// none): for restoring a serialized queue, or for presenting an event kept
// outside the queue in the same (time, sequence) order. Such items must not
// be pushed.
func MakeItem[P any](t float64, seq uint64, slot int, payload P) Item[P] {
	return Item[P]{Time: t, Payload: payload, seq: seq, slot: int32(slot) + 1}
}

// Snapshot returns the queue's internal heap array (in heap order, not
// sorted order) and its sequence counter. The returned slice aliases the
// queue; callers must copy what they retain and must not mutate it.
// Feeding both values back into Restore reproduces the exact queue state,
// including FIFO tie-breaking among equal-time events.
func (q *Queue[P]) Snapshot() (items []Item[P], seq uint64) {
	return q.h, q.seq
}

// Restore replaces the queue's state with a previously snapshotted heap
// array and sequence counter. The items must be in valid heap order (as
// returned by Snapshot), each slot held by at most one; Restore copies the
// slice and trusts its order.
func (q *Queue[P]) Restore(items []Item[P], seq uint64) {
	q.h = append(q.h[:0], items...)
	q.seq = seq
	q.slots = q.slots[:0]
	for i, it := range q.h {
		for int(it.slot) > len(q.slots) {
			q.slots = append(q.slots, -1)
		}
		q.placed(i)
	}
}

// Before reports whether an event at (t1, seq1) dequeues before one at
// (t2, seq2): the queue's own order, for merging it with events kept
// elsewhere.
func Before(t1 float64, seq1 uint64, t2 float64, seq2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return seq1 < seq2
}

// less orders by time, then by insertion sequence (FIFO among ties).
func (q *Queue[P]) less(a, b int) bool {
	if q.h[a].Time != q.h[b].Time {
		return q.h[a].Time < q.h[b].Time
	}
	return q.h[a].seq < q.h[b].seq
}

// placed records that the item at heap index i now sits there.
func (q *Queue[P]) placed(i int) {
	if s := q.h[i].slot; s != 0 {
		q.slots[s-1] = int32(i)
	}
}

func (q *Queue[P]) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.placed(i)
	q.placed(j)
}

// fix restores heap order after the item at index i changed.
func (q *Queue[P]) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *Queue[P]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the item at index i toward the leaves and reports whether it
// moved.
func (q *Queue[P]) down(i int) bool {
	start, n := i, len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q.less(r, l) {
			least = r
		}
		if !q.less(least, i) {
			break
		}
		q.swap(i, least)
		i = least
	}
	return i > start
}
