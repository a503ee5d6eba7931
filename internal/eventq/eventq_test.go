package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.Payload != w {
			t.Fatalf("pop order wrong, got %v want %s", it, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty should report !ok")
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 10; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload != i {
			t.Fatalf("tie-break order: got %v want %d", it.Payload, i)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue[string]
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty should report !ok")
	}
	q.Push(2, "x")
	q.Push(1, "y")
	if it, _ := q.Peek(); it.Payload != "y" {
		t.Error("Peek should return earliest")
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2 (peek must not remove)", q.Len())
	}
}

func TestRandomizedHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[int]
	var times []float64
	for i := 0; i < 2000; i++ {
		tm := rng.Float64() * 100
		times = append(times, tm)
		q.Push(tm, i)
	}
	sort.Float64s(times)
	for i, want := range times {
		it, _ := q.Pop()
		if it.Time != want {
			t.Fatalf("pop %d: time %v, want %v", i, it.Time, want)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	last := -1.0
	pushed, popped := 0, 0
	for i := 0; i < 5000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// Never push into the past relative to what we've popped.
			q.Push(last+rng.Float64(), i)
			pushed++
		} else {
			it, _ := q.Pop()
			if it.Time < last {
				t.Fatalf("time went backwards: %v < %v", it.Time, last)
			}
			last = it.Time
			popped++
		}
	}
	if pushed-popped != q.Len() {
		t.Errorf("accounting: pushed %d popped %d len %d", pushed, popped, q.Len())
	}
}

// Bulk insert then full drain must come out in exact (time, insertion)
// order even at scale, including runs of equal-time events.
func TestBulkInsertDrainStableOrder(t *testing.T) {
	const n = 50000
	rng := rand.New(rand.NewSource(3))
	type tagged struct {
		id int
	}
	var q Queue[tagged]
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		// Coarse-grained times force many exact ties.
		times[i] = float64(rng.Intn(500))
		q.Push(times[i], tagged{id: i})
	}
	lastTime, lastID := -1.0, -1
	for i := 0; i < n; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, n)
		}
		if it.Time < lastTime {
			t.Fatalf("pop %d: time %v before %v", i, it.Time, lastTime)
		}
		if it.Time == lastTime && it.Payload.id < lastID {
			t.Fatalf("pop %d: equal-time events out of insertion order (%d after %d)",
				i, it.Payload.id, lastID)
		}
		if times[it.Payload.id] != it.Time {
			t.Fatalf("pop %d: payload %d carries time %v, pushed at %v",
				i, it.Payload.id, it.Time, times[it.Payload.id])
		}
		lastTime, lastID = it.Time, it.Payload.id
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after full drain", q.Len())
	}
}

// Interleaved churn at scale: rolling windows of pushes and pops, as the
// simulator produces when every invocation replaces per-core plans. Checks
// determinism by replaying the identical operation sequence.
func TestInterleavedChurnDeterministic(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(99))
		var q Queue[int]
		var order []int
		id := 0
		now := 0.0
		for step := 0; step < 20000; step++ {
			switch {
			case q.Len() == 0 || rng.Intn(3) > 0:
				// Bursts of pushes with frequent ties at the current time.
				t := now
				if rng.Intn(2) == 0 {
					t += float64(rng.Intn(10))
				}
				q.Push(t, id)
				id++
			default:
				it, _ := q.Pop()
				now = it.Time
				order = append(order, it.Payload)
			}
		}
		for q.Len() > 0 {
			it, _ := q.Pop()
			order = append(order, it.Payload)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at pop %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Steady-state Push/Pop on a warmed queue must not allocate: the simulator
// pushes a segment boundary for nearly every event it handles, so a
// per-push allocation would dominate the allocs/event budget tracked in
// BENCH_sim.json.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1024; i++ {
		q.Push(float64(i%37), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		it, _ := q.Pop()
		q.Push(it.Time+1, it.Payload)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %.1f objects per op, want 0", allocs)
	}
}

// A slot-based schedule — reserve a number per chain event, queue only the
// chain's next event in its slot, replace the slot when the chain is
// replaced — must pop the live events in exactly the order of pushing every
// chain event up front and skipping outdated ones at pop, equal-time ties
// included, with plain pushes interleaved.
func TestSlotScheduleMatchesEagerOrder(t *testing.T) {
	const slots = 8
	type tag struct {
		slot, version, k int // slot -1: a plain event
	}
	type op struct {
		pop    bool
		plain  bool
		slot   int
		dt     []float64 // chain event offsets from now, non-decreasing
		plainT float64
	}
	rng := rand.New(rand.NewSource(5))
	var ops []op
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(6); {
		case r < 3:
			ops = append(ops, op{pop: true})
		case r == 3:
			ops = append(ops, op{plain: true, plainT: float64(rng.Intn(3))})
		default:
			n := rng.Intn(5) // an empty chain clears the slot
			dt := make([]float64, n)
			cur := float64(rng.Intn(2))
			for k := range dt {
				cur += float64(rng.Intn(2)) // coarse steps force exact ties
				dt[k] = cur
			}
			ops = append(ops, op{slot: rng.Intn(slots), dt: dt})
		}
	}

	// eager pushes every chain event and drops outdated ones at pop.
	eager := func() []tag {
		var q Queue[tag]
		var version [slots]int
		var order []tag
		now := 0.0
		for i, o := range ops {
			switch {
			case o.pop:
				for q.Len() > 0 {
					it, _ := q.Pop()
					if tg := it.Payload; tg.slot >= 0 && tg.version != version[tg.slot] {
						continue
					}
					now = it.Time
					order = append(order, it.Payload)
					break
				}
			case o.plain:
				q.Push(now+o.plainT, tag{-1, i, 0})
			default:
				version[o.slot]++
				for k, dt := range o.dt {
					q.Push(now+dt, tag{o.slot, version[o.slot], k})
				}
			}
		}
		return order
	}
	// slotted queues one event per chain and replaces it on replan.
	slotted := func() []tag {
		var q Queue[tag]
		var version [slots]int
		var base [slots]uint64
		var times [slots][]float64
		var order []tag
		now := 0.0
		for i, o := range ops {
			switch {
			case o.pop:
				if q.Len() == 0 {
					continue
				}
				it, _ := q.Pop()
				now = it.Time
				order = append(order, it.Payload)
				if tg := it.Payload; tg.slot >= 0 && tg.k+1 < len(times[tg.slot]) {
					q.SetSlot(tg.slot, times[tg.slot][tg.k+1], base[tg.slot]+uint64(tg.k+1), tag{tg.slot, tg.version, tg.k + 1})
				}
			case o.plain:
				q.Push(now+o.plainT, tag{-1, i, 0})
			default:
				version[o.slot]++
				base[o.slot] = q.Reserve(len(o.dt))
				times[o.slot] = times[o.slot][:0]
				for _, dt := range o.dt {
					times[o.slot] = append(times[o.slot], now+dt)
				}
				if len(o.dt) == 0 {
					q.ClearSlot(o.slot)
					continue
				}
				q.SetSlot(o.slot, times[o.slot][0], base[o.slot], tag{o.slot, version[o.slot], 0})
			}
		}
		return order
	}
	a, b := eager(), slotted()
	if len(a) != len(b) {
		t.Fatalf("slotted pops %d live events, eager %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop %d: slotted %+v, eager %+v", i, b[i], a[i])
		}
	}
}

// A slot holds at most one event: SetSlot replaces it in place (moving it
// either way in the order), ClearSlot removes it, and Snapshot/Restore keep
// track of which item fills which slot.
func TestSlots(t *testing.T) {
	var q Queue[string]
	base := q.Reserve(4)
	q.Push(5, "plain")
	q.SetSlot(2, 7, base, "a")
	q.SetSlot(0, 3, base+1, "b")
	q.SetSlot(2, 1, base+2, "a2") // replaces "a", moving up
	q.SetSlot(0, 9, base+3, "b2") // replaces "b", moving down
	if q.Len() != 3 {
		t.Fatalf("len %d after replacements, want 3", q.Len())
	}
	items, seq := q.Snapshot()
	var r Queue[string]
	r.Restore(append([]Item[string](nil), items...), seq)
	r.ClearSlot(1) // empty slot: no-op
	r.ClearSlot(2)
	var got []string
	for r.Len() > 0 {
		it, _ := r.Pop()
		got = append(got, it.Payload)
	}
	if want := []string{"plain", "b2"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("restored pops %v, want %v", got, want)
	}
	r.SetSlot(0, 1, r.Reserve(1), "c") // the popped slot is free again
	if it, _ := r.Pop(); it.Payload != "c" || r.Len() != 0 {
		t.Fatalf("refilled slot popped %q, len %d", it.Payload, r.Len())
	}
}

// Reserve advances the counter exactly like that many pushes, so numbers
// given out afterwards match an up-front push of the reserved events.
func TestReserveAdvancesSequence(t *testing.T) {
	var q Queue[int]
	if base := q.Reserve(3); base != 0 {
		t.Fatalf("first reservation starts at %d, want 0", base)
	}
	q.Push(1, 0)
	if it, _ := q.Peek(); it.Seq() != 3 {
		t.Fatalf("push after Reserve(3) got seq %d, want 3", it.Seq())
	}
	if base := q.Reserve(0); base != 4 {
		t.Fatalf("empty reservation at %d, want 4", base)
	}
	if !Before(1, 5, 1, 6) || Before(1, 6, 1, 5) || !Before(0.5, 9, 1, 0) {
		t.Fatal("Before disagrees with the queue order")
	}
}
