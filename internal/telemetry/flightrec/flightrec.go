// Package flightrec is a bounded-memory flight recorder for simulation
// runs: a per-server ring buffer that retains the most recent events in
// fixed memory and snapshots ("dumps") the ring when something
// interesting happens — a fault edge, a shed burst, an invariant
// violation, or an explicit request. It is the piece that keeps the
// streamed 10M-job cluster pipeline observable without materializing
// whole traces: memory is Depth records per server plus at most MaxDumps
// retained snapshots, independent of run length.
//
// Like every telemetry component in this repo, a recorder is
// deterministic (all timestamps are simulation time, trigger decisions
// depend only on the event stream) and single-goroutine: give each
// concurrent engine its own Child recorder and fold them with Absorb in
// server index order, so dumps are bit-identical for any cluster worker
// count. A nil *Recorder is the disabled recorder — every method no-ops.
package flightrec

import "dessched/internal/sim"

// Defaults for an unconfigured recorder.
const (
	// DefaultDepth is the ring capacity: how many recent events each
	// server retains for a dump.
	DefaultDepth = 256
	// DefaultShedBurst and DefaultShedWindow define the shed-burst
	// trigger: this many EvShed events inside a window of simulated
	// seconds trips a dump.
	DefaultShedBurst = 32
	// DefaultShedWindow is the shed-burst window in simulated seconds.
	DefaultShedWindow = 1.0
	// DefaultMaxDumps bounds retained snapshots per recorder; further
	// trips are counted, not stored.
	DefaultMaxDumps = 16
	// DefaultCooldown is the minimum simulated seconds between dumps of
	// one recorder, so a flapping fault doesn't spend the dump budget on
	// near-duplicates.
	DefaultCooldown = 5.0
)

// Config arms a flight recorder. The zero value takes every default;
// negative ShedBurst disables the shed-burst trigger, negative Cooldown
// means no cooldown.
type Config struct {
	// Depth is the ring capacity in events (0 = DefaultDepth).
	Depth int
	// ShedBurst trips a dump when this many sheds land within ShedWindow
	// (0 = DefaultShedBurst, negative = trigger off).
	ShedBurst int
	// ShedWindow is the shed-burst window in simulated seconds
	// (0 = DefaultShedWindow).
	ShedWindow float64
	// MaxDumps bounds retained dumps (0 = DefaultMaxDumps).
	MaxDumps int
	// Cooldown is the minimum simulated seconds between dumps
	// (0 = DefaultCooldown, negative = none).
	Cooldown float64
	// FaultEdges, when true, trips a dump on every EvFaultEdge (subject
	// to cooldown). On by default via New; spelled out so Child can copy.
	FaultEdges bool
}

// withDefaults resolves the zero-value conveniences.
func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.ShedBurst == 0 {
		c.ShedBurst = DefaultShedBurst
	}
	if c.ShedWindow <= 0 {
		c.ShedWindow = DefaultShedWindow
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = DefaultMaxDumps
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultCooldown
	}
	return c
}

// Record is one ring entry: the compact, fixed-size projection of a sim
// event. Kind is stored numerically and serialized as the event kind's
// name.
type Record struct {
	Time    float64
	Kind    sim.EventKind
	Job     int64
	Core    int
	Queue   int
	Quality float64
	Class   string
}

// rec is the in-ring representation of a Record: pointer-free, so the
// per-event ring store compiles to a plain copy with no GC write
// barrier. Class names are interned to an index and materialized back
// into strings only when a dump is actually captured. The kind fits a
// byte (the engine has ten), which keeps a rec at 40 bytes: the ring is
// allocated and zeroed whole for every run.
type rec struct {
	time    float64
	quality float64
	job     int64
	core    int32
	queue   int32
	class   int32 // index into Recorder.classes, -1 = none
	kind    uint8
}

// Dump is one tripped snapshot: the ring's contents oldest-first at the
// moment of the trigger, with enough context to know why and where.
type Dump struct {
	Server  int
	Trigger string
	Time    float64
	Detail  string
	// Seen is the recorder's total observed events at trip time — how
	// much history scrolled past the ring before this snapshot.
	Seen    int
	Records []Record
}

// Recorder is the flight recorder: a fixed ring of recent events plus
// the dumps its triggers have captured. Single-goroutine; nil is the
// disabled recorder.
type Recorder struct {
	cfg    Config
	server int

	ring    []rec
	start   int // ring read position
	n       int
	seen    int
	classes []string // interned Class names, indexed by rec.class

	sheds []float64 // recent shed timestamps, ring of cfg.ShedBurst
	shedI int
	shedN int

	dumps    []Dump
	trips    int // total trips, including those past MaxDumps
	lastDump float64
	dumped   bool // lastDump valid
}

// New returns a recorder armed with cfg (zero Config = all defaults,
// fault-edge trigger on).
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	cfg.FaultEdges = true
	return newRecorder(cfg, 0)
}

func newRecorder(cfg Config, server int) *Recorder {
	r := &Recorder{cfg: cfg, server: server, ring: make([]rec, 0, cfg.Depth)}
	if cfg.ShedBurst > 0 {
		r.sheds = make([]float64, 0, cfg.ShedBurst)
	}
	return r
}

// Child derives the recorder for server index: same configuration, its
// own ring and dump budget. Built for the cluster's indexed-slot
// pattern — fold the children back with Absorb in index order. Nil-safe.
func (r *Recorder) Child(index int) *Recorder {
	if r == nil {
		return nil
	}
	return newRecorder(r.cfg, index)
}

// Observe feeds one event through the ring and the automatic triggers;
// install it as (part of) the engine's Observer. Nil-safe.
func (r *Recorder) Observe(e sim.Event) {
	if r == nil {
		return
	}
	// Write fields straight into the ring slot: constructing a rec and
	// passing it through a helper costs two 48-byte copies per event,
	// which is most of the recorder's measurable overhead.
	r.seen++
	var slot *rec
	if r.n < cap(r.ring) {
		r.ring = r.ring[:r.n+1]
		slot = &r.ring[r.n]
		r.n++
	} else {
		slot = &r.ring[r.start]
		if r.start++; r.start == len(r.ring) {
			r.start = 0
		}
	}
	slot.time = e.Time
	slot.quality = e.Quality
	slot.job = int64(e.Job)
	slot.kind = uint8(e.Kind)
	slot.core = int32(e.Core)
	slot.queue = int32(e.Queue)
	slot.class = -1
	if e.Class != "" {
		slot.class = r.classIndex(e.Class)
	}
	switch e.Kind {
	case sim.EvFaultEdge:
		if r.cfg.FaultEdges {
			r.Trip("fault-edge", e.Time, "")
		}
	case sim.EvShed:
		if r.cfg.ShedBurst > 0 && r.shedBurst(e.Time) {
			r.Trip("shed-burst", e.Time, "")
		}
	}
}

// classIndex interns a Class name, returning its stable index (-1 for
// the empty class). The class set is tiny (workload job classes), so a
// linear scan — usually resolved by the pointer-equality fast path of
// string comparison — beats a map.
func (r *Recorder) classIndex(s string) int32 {
	if s == "" {
		return -1
	}
	for i, c := range r.classes {
		if c == s {
			return int32(i)
		}
	}
	r.classes = append(r.classes, s)
	return int32(len(r.classes) - 1)
}

// className is the inverse of classIndex.
func (r *Recorder) className(i int32) string {
	if i < 0 {
		return ""
	}
	return r.classes[i]
}

// shedBurst records one shed timestamp and reports whether the burst
// condition (ShedBurst sheds within ShedWindow) now holds.
func (r *Recorder) shedBurst(at float64) bool {
	if len(r.sheds) < cap(r.sheds) {
		r.sheds = append(r.sheds, at)
	} else {
		r.sheds[r.shedI] = at
	}
	r.shedI = (r.shedI + 1) % cap(r.sheds)
	if r.shedN < cap(r.sheds) {
		r.shedN++
	}
	if r.shedN < cap(r.sheds) {
		return false
	}
	oldest := r.sheds[r.shedI%len(r.sheds)]
	return at-oldest <= r.cfg.ShedWindow
}

// Trip captures a dump now (simulation time at) under the given trigger
// name, subject to the cooldown and the MaxDumps budget; trips past the
// budget are still counted by Trips. Use it directly for manual or
// invariant-violation triggers. Nil-safe.
func (r *Recorder) Trip(trigger string, at float64, detail string) {
	if r == nil {
		return
	}
	r.trips++
	if r.dumped && r.cfg.Cooldown > 0 && at-r.lastDump < r.cfg.Cooldown {
		return
	}
	if len(r.dumps) >= r.cfg.MaxDumps {
		return
	}
	r.lastDump = at
	r.dumped = true
	r.dumps = append(r.dumps, Dump{
		Server: r.server, Trigger: trigger, Time: at, Detail: detail,
		Seen: r.seen, Records: r.window(),
	})
}

// window copies the ring oldest-first, materializing interned class
// indices back into strings.
func (r *Recorder) window() []Record {
	if r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.n)
	for _, e := range r.ring[r.start:] {
		out = append(out, r.record(e))
	}
	for _, e := range r.ring[:r.start] {
		out = append(out, r.record(e))
	}
	return out
}

// record expands one in-ring rec into the exported Record form.
func (r *Recorder) record(e rec) Record {
	return Record{
		Time: e.time, Kind: sim.EventKind(e.kind), Job: e.job, Core: int(e.core),
		Queue: int(e.queue), Quality: e.quality, Class: r.className(e.class),
	}
}

// Absorb folds a child recorder's dumps into r (in the order the child
// captured them), respecting r's own MaxDumps so cluster-level memory
// stays bounded; overflow is counted by Trips. Called sequentially in
// server index order by the cluster layer. Nil-safe both ways.
func (r *Recorder) Absorb(child *Recorder) {
	if r == nil || child == nil {
		return
	}
	for _, d := range child.dumps {
		if len(r.dumps) >= r.cfg.MaxDumps {
			break
		}
		r.dumps = append(r.dumps, d)
	}
	r.trips += child.trips
	r.seen += child.seen
}

// Dumps returns the captured dumps in capture order (cluster folds:
// server index order, then capture order). The slice is the recorder's
// backing store; treat it as read-only. Nil-safe.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	return r.dumps
}

// Trips returns how many times a trigger fired, including trips the
// cooldown or dump budget declined to capture. Nil-safe.
func (r *Recorder) Trips() int {
	if r == nil {
		return 0
	}
	return r.trips
}

// Seen returns the total events observed (summed across absorbed
// children). Nil-safe.
func (r *Recorder) Seen() int {
	if r == nil {
		return 0
	}
	return r.seen
}

// Armed reports whether the recorder exists — the nil-safe way for
// integration layers to test for an armed flight recorder.
func (r *Recorder) Armed() bool { return r != nil }
