package flightrec

import (
	"bytes"
	"strings"
	"testing"

	"dessched/internal/job"
	"dessched/internal/sim"
)

func ev(at float64, kind sim.EventKind, jobID int64) sim.Event {
	return sim.Event{Time: at, Kind: kind, Job: job.ID(jobID), Core: -1, Queue: 1}
}

// TestRingWindow: the ring keeps the most recent Depth events, and a
// dump reads them back oldest-first with Seen counting the full history
// that scrolled past.
func TestRingWindow(t *testing.T) {
	r := New(Config{Depth: 4, ShedBurst: -1})
	for i := 0; i < 10; i++ {
		r.Observe(ev(float64(i), sim.EvArrival, int64(i)))
	}
	r.Trip("manual", 10, "test")
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Seen != 10 || r.Seen() != 10 {
		t.Errorf("Seen = %d/%d, want 10", d.Seen, r.Seen())
	}
	if len(d.Records) != 4 {
		t.Fatalf("window = %d records, want 4 (ring depth)", len(d.Records))
	}
	for i, rec := range d.Records {
		if want := int64(6 + i); rec.Job != want {
			t.Errorf("record %d: job %d, want %d (oldest-first)", i, rec.Job, want)
		}
	}
}

// TestFaultEdgeTrigger: every EvFaultEdge trips a dump (subject to
// cooldown), carrying the trigger name destrace keys on.
func TestFaultEdgeTrigger(t *testing.T) {
	r := New(Config{Depth: 8, Cooldown: -1})
	r.Observe(ev(1, sim.EvArrival, 1))
	r.Observe(ev(2, sim.EvFaultEdge, -1))
	if got := r.Dumps(); len(got) != 1 || got[0].Trigger != "fault-edge" || got[0].Time != 2 {
		t.Fatalf("fault edge did not trip: %+v", got)
	}
}

// TestShedBurstTrigger: ShedBurst sheds inside ShedWindow trip a dump;
// the same count spread wider does not.
func TestShedBurstTrigger(t *testing.T) {
	r := New(Config{Depth: 8, ShedBurst: 3, ShedWindow: 1.0, Cooldown: -1})
	// Spread out: 3 sheds over 4 simulated seconds — no burst.
	for i := 0; i < 3; i++ {
		r.Observe(ev(float64(2*i), sim.EvShed, int64(i)))
	}
	if n := len(r.Dumps()); n != 0 {
		t.Fatalf("spread sheds tripped %d dumps, want 0", n)
	}
	// Burst: 3 sheds within 0.2 s.
	for i := 0; i < 3; i++ {
		r.Observe(ev(10+0.1*float64(i), sim.EvShed, int64(10+i)))
	}
	dumps := r.Dumps()
	if len(dumps) != 1 || dumps[0].Trigger != "shed-burst" {
		t.Fatalf("burst did not trip exactly once: %+v", dumps)
	}
}

// TestCooldownAndBudget: trips inside the cooldown or past MaxDumps are
// counted but not captured — the memory bound holds, the evidence of
// suppressed trips survives.
func TestCooldownAndBudget(t *testing.T) {
	r := New(Config{Depth: 4, Cooldown: 5, MaxDumps: 2, ShedBurst: -1})
	r.Observe(ev(0, sim.EvFaultEdge, -1))  // captured
	r.Observe(ev(1, sim.EvFaultEdge, -1))  // cooldown: counted only
	r.Observe(ev(10, sim.EvFaultEdge, -1)) // captured (budget now full)
	r.Observe(ev(20, sim.EvFaultEdge, -1)) // past budget: counted only
	if got, want := len(r.Dumps()), 2; got != want {
		t.Errorf("dumps = %d, want %d", got, want)
	}
	if got, want := r.Trips(), 4; got != want {
		t.Errorf("trips = %d, want %d", got, want)
	}
}

// TestClassInterning: class names survive the interned in-ring form and
// come back as the original strings in dump records.
func TestClassInterning(t *testing.T) {
	r := New(Config{Depth: 8, ShedBurst: -1})
	classes := []string{"interactive", "batch", "", "interactive", "best-effort"}
	for i, c := range classes {
		e := ev(float64(i), sim.EvArrival, int64(i))
		e.Class = c
		r.Observe(e)
	}
	r.Trip("manual", 9, "")
	recs := r.Dumps()[0].Records
	if len(recs) != len(classes) {
		t.Fatalf("records = %d, want %d", len(recs), len(classes))
	}
	for i, rec := range recs {
		if rec.Class != classes[i] {
			t.Errorf("record %d: class %q, want %q", i, rec.Class, classes[i])
		}
	}
}

// TestChildAbsorb: children keep their server index, Absorb folds dumps
// in call order and sums seen/trips, and the parent's MaxDumps caps the
// fold so cluster memory stays bounded.
func TestChildAbsorb(t *testing.T) {
	parent := New(Config{Depth: 4, MaxDumps: 3, Cooldown: -1, ShedBurst: -1})
	var children []*Recorder
	for s := 0; s < 4; s++ {
		c := parent.Child(s)
		c.Observe(ev(float64(s), sim.EvFaultEdge, int64(s)))
		children = append(children, c)
	}
	for _, c := range children {
		parent.Absorb(c)
	}
	dumps := parent.Dumps()
	if len(dumps) != 3 {
		t.Fatalf("dumps = %d, want 3 (parent budget)", len(dumps))
	}
	for i, d := range dumps {
		if d.Server != i {
			t.Errorf("dump %d: server %d, want %d (index order)", i, d.Server, i)
		}
	}
	if parent.Trips() != 4 {
		t.Errorf("trips = %d, want 4 (overflow still counted)", parent.Trips())
	}
	if parent.Seen() != 4 {
		t.Errorf("seen = %d, want 4 (summed across children)", parent.Seen())
	}
}

// TestNilRecorder: a nil *Recorder is the disabled recorder — every
// method no-ops without panicking.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Observe(ev(0, sim.EvArrival, 0))
	r.Trip("manual", 0, "")
	r.Absorb(New(Config{}))
	if r.Child(3) != nil {
		t.Error("nil.Child should stay nil")
	}
	if r.Dumps() != nil || r.Trips() != 0 || r.Seen() != 0 || r.Armed() {
		t.Error("nil recorder reported state")
	}
}

// TestJSONRoundTrip: WriteJSON is byte-deterministic for equal state and
// ReadJSON inverts it exactly; other schemas are rejected.
func TestJSONRoundTrip(t *testing.T) {
	build := func() *Recorder {
		r := New(Config{Depth: 4, Cooldown: -1, ShedBurst: -1})
		for i := 0; i < 6; i++ {
			e := ev(float64(i)*0.5, sim.EvComplete, int64(i))
			e.Quality = 0.75
			e.Class = "interactive"
			r.Observe(e)
		}
		r.Observe(ev(3.5, sim.EvFaultEdge, -1))
		return r
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal recorder state serialized to different bytes")
	}

	bundle, err := ReadJSON(&a)
	if err != nil {
		t.Fatal(err)
	}
	orig := build()
	if bundle.Trips != orig.Trips() || bundle.Seen != orig.Seen() || len(bundle.Dumps) != len(orig.Dumps()) {
		t.Fatalf("round trip lost state: %+v", bundle)
	}
	for i, d := range bundle.Dumps {
		od := orig.Dumps()[i]
		if d.Trigger != od.Trigger || d.Time != od.Time || len(d.Records) != len(od.Records) {
			t.Errorf("dump %d diverged: %+v vs %+v", i, d, od)
		}
		for j, rec := range d.Records {
			if rec != od.Records[j] {
				t.Errorf("dump %d record %d: %+v vs %+v", i, j, rec, od.Records[j])
			}
		}
	}

	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v1"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
}

// TestRingKeepsEveryKind: every engine event kind reads back from a dump
// as itself, so the byte the ring stores it in is wide enough.
func TestRingKeepsEveryKind(t *testing.T) {
	kinds := []sim.EventKind{
		sim.EvArrival, sim.EvInvoke, sim.EvComplete, sim.EvDeadline, sim.EvDiscard,
		sim.EvShed, sim.EvRequeue, sim.EvRetry, sim.EvAbandon,
	}
	r := New(Config{Depth: len(kinds), ShedBurst: -1})
	for i, k := range kinds {
		r.Observe(ev(float64(i), k, int64(i)))
	}
	r.Trip("manual", 10, "")
	recs := r.Dumps()[0].Records
	for i, k := range kinds {
		if recs[i].Kind != k {
			t.Errorf("record %d: kind %v, want %v", i, recs[i].Kind, k)
		}
	}
}
