package sim

import (
	"slices"

	"dessched/internal/eventq"
	"dessched/internal/job"
)

// Static events — every job's arrival and deadline — are known when the job
// is added, so they are kept out of the event heap: arrivals in one run
// sorted by (release, seq), deadlines in one run per job class sorted by
// (deadline, seq). Deadlines are agreeable within a class, so generated
// input and streamed windows arrive in order and sorting is a linear check.
// The engine loop merges the run heads with the heap top by (time, seq);
// the heap itself holds only each core's next plan-segment boundary plus
// quantum, retry, fault-edge and checkpoint events.

// staticEvent is one arrival or deadline held outside the heap.
type staticEvent struct {
	t   float64
	seq uint64
	js  *JobState
}

func staticBefore(a, b staticEvent) int {
	switch {
	case eventq.Before(a.t, a.seq, b.t, b.seq):
		return -1
	case eventq.Before(b.t, b.seq, a.t, a.seq):
		return 1
	}
	return 0
}

// cursor is a run of static events in (t, seq) order, consumed from the
// front. Consumed entries are reused before the run grows, so a streamed
// engine's runs stay the size of its in-flight window.
type cursor struct {
	buf  []staticEvent // buf[next:] are pending
	next int
}

func (c *cursor) len() int { return len(c.buf) - c.next }

// head returns the earliest pending event; the run must not be empty.
func (c *cursor) head() *staticEvent { return &c.buf[c.next] }

// pending returns the pending events in order, aliasing the run.
func (c *cursor) pending() []staticEvent { return c.buf[c.next:] }

// pop removes the head, clearing its entry so a consumed job can be
// collected while the run's backing array lives on.
func (c *cursor) pop() staticEvent {
	ev := c.buf[c.next]
	c.buf[c.next] = staticEvent{}
	if c.next++; c.next == len(c.buf) {
		c.buf, c.next = c.buf[:0], 0
	}
	return ev
}

// reserve makes room to append n events, moving the pending events to the
// front of the run before growing it.
func (c *cursor) reserve(n int) {
	if cap(c.buf)-len(c.buf) >= n {
		return
	}
	if c.next > 0 {
		live := copy(c.buf, c.buf[c.next:])
		clear(c.buf[live:])
		c.buf, c.next = c.buf[:live], 0
	}
	c.buf = slices.Grow(c.buf, n)
}

// sortFrom restores (t, seq) order after events were appended at buf index
// from: a linear check, and a sort only when the appended tail is out of
// order (shuffled batch input, or equal releases with decreasing
// deadlines).
func (c *cursor) sortFrom(from int) {
	p := c.pending()
	for i := max(from-c.next, 1); i < len(p); i++ {
		if staticBefore(p[i], p[i-1]) < 0 {
			slices.SortFunc(p, staticBefore)
			return
		}
	}
}

// addJobs registers jobs with the engine. One reservation of 2·len(jobs)
// sequence numbers gives job i the arrival number base+2i and the deadline
// number base+2i+1, so equal-time static events tie-break exactly as if
// both events of every job had been pushed in input order.
func (e *engine) addJobs(jobs []job.Job) {
	base := e.events.Reserve(2 * len(jobs))
	// Size every run for the batch first. Classes are few and come in long
	// same-class stretches, so counting is a cheap scan.
	need := e.runScratch[:0]
	k := -1
	for i := range jobs {
		if k < 0 || jobs[i].Class != e.deadlineClass[k] {
			k = e.deadlineRun(jobs[i].Class)
			for len(need) < len(e.deadlines) {
				need = append(need, 0)
			}
		}
		need[k]++
	}
	e.arrivals.reserve(len(jobs))
	arrivalsFrom := len(e.arrivals.buf)
	for k, n := range need {
		e.deadlines[k].reserve(n)
		need[k] = len(e.deadlines[k].buf) // now where the batch starts
	}
	e.runScratch = need

	for i := range jobs {
		js := &JobState{Job: jobs[i], Core: -1}
		e.all = append(e.all, js)
		seq := base + 2*uint64(i)
		e.arrivals.buf = append(e.arrivals.buf, staticEvent{js.Job.Release, seq, js})
		if k < 0 || js.Job.Class != e.deadlineClass[k] {
			k = e.deadlineRun(js.Job.Class)
		}
		d := &e.deadlines[k]
		d.buf = append(d.buf, staticEvent{js.Job.Deadline, seq + 1, js})
	}
	e.arrivals.sortFrom(arrivalsFrom)
	for k, from := range need {
		e.deadlines[k].sortFrom(from)
	}
	e.undeparted += len(jobs)
	e.pendingArrivals += len(jobs)
}

// deadlineRun returns the index of the class's deadline run, opening an
// empty one when the class is new.
func (e *engine) deadlineRun(class string) int {
	for k, name := range e.deadlineClass {
		if name == class {
			return k
		}
	}
	e.deadlineClass = append(e.deadlineClass, class)
	e.deadlines = append(e.deadlines, cursor{})
	return len(e.deadlines) - 1
}

// nextEvent removes and returns the earliest pending event strictly before
// until — the heap top or a static run's head, whichever comes first in
// (time, seq) order.
func (e *engine) nextEvent(until float64) (eventq.Item[simEvent], bool) {
	// Start from (until, 0): an event comes before it only if its time is
	// strictly before until.
	t, seq := until, uint64(0)
	fromHeap := false
	if top, ok := e.events.Peek(); ok && eventq.Before(top.Time, top.Seq(), t, seq) {
		t, seq, fromHeap = top.Time, top.Seq(), true
	}
	var from *cursor
	if e.arrivals.len() > 0 {
		if h := e.arrivals.head(); eventq.Before(h.t, h.seq, t, seq) {
			t, seq, from = h.t, h.seq, &e.arrivals
		}
	}
	for k := range e.deadlines {
		d := &e.deadlines[k]
		if d.len() > 0 {
			if h := d.head(); eventq.Before(h.t, h.seq, t, seq) {
				t, seq, from = h.t, h.seq, d
			}
		}
	}
	switch {
	case from != nil:
		kind := evkDeadline
		if from == &e.arrivals {
			kind = evkArrival
		}
		ev := from.pop()
		return eventq.MakeItem(ev.t, ev.seq, -1, simEvent{kind: kind, js: ev.js}), true
	case fromHeap:
		return e.events.Pop()
	}
	return eventq.Item[simEvent]{}, false
}

// armBoundary makes the end of segment k of the core's current plan, under
// the sequence number the plan reserved for it, the core's one queued
// boundary — or empties the core's slot when the plan has no segment k.
func (e *engine) armBoundary(c *CoreState, k int) {
	if k < len(c.plan) {
		e.events.SetSlot(c.Index, c.plan[k].End, c.planSeq+uint64(k), simEvent{kind: evkSegment, core: c})
	} else {
		e.events.ClearSlot(c.Index)
	}
}
