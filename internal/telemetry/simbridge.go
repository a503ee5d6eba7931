package telemetry

import (
	"strconv"

	"dessched/internal/sim"
	"dessched/internal/yds"
)

// simEventKinds is every event kind the collector pre-registers, so a
// snapshot always exposes the full series set (zeros included) and the
// hot path is an array index, not a map lookup.
var simEventKinds = []sim.EventKind{
	sim.EvArrival, sim.EvInvoke, sim.EvComplete, sim.EvDeadline,
	sim.EvDiscard, sim.EvFaultEdge, sim.EvShed, sim.EvRequeue,
	sim.EvRetry, sim.EvAbandon,
}

// SimCollector turns a simulation run into metrics. It implements both
// instrumentation hooks of the engine:
//
//   - as an Observer (pass collector.Observe to sim.Config.Observer) it
//     counts every event by kind, tracks the waiting-queue depth gauge,
//     and feeds the per-job quality histogram from departures;
//   - as a Recorder (assign to sim.Config.Recorder) it turns executed
//     slices into per-core speed histograms, busy-time gauges, and slice
//     counts.
//
// After the run, Finish records the result-level gauges (normalized
// quality, energy, peak power, per-core utilization, outcome counts).
// Like the engine itself, a collector is single-run, single-goroutine:
// use a fresh collector (or at least a fresh registry) per run. All
// metrics land in the registry passed to NewSimCollector, so server and
// simulation metrics can share one exposition endpoint.
type SimCollector struct {
	reg   *Registry
	cores int

	events     []*Counter // indexed by sim.EventKind
	queueDepth *Gauge
	quality    *Histogram
	speed      []*Histogram // per core
	busy       []*Gauge     // per core, seconds
	slices     []*Counter   // per core
	util       *GaugeVec
	outcomes   *CounterVec
}

// QualityBuckets is the bucket layout of sim_job_quality: the paper's
// quality function lives in [0, 1), so ten linear deciles resolve it.
func QualityBuckets() []float64 { return LinearBuckets(0.1, 0.1, 10) }

// SpeedBuckets is the bucket layout of sim_core_speed_ghz, covering the
// 0.5–3.0 GHz ladder of §V-B with quarter-GHz resolution plus headroom.
func SpeedBuckets() []float64 { return LinearBuckets(0.25, 0.25, 14) }

// WaitBuckets is the bucket layout of sim_class_wait_seconds: 25 ms
// resolution over the paper's 150 ms deadline window plus headroom for
// slower classes.
func WaitBuckets() []float64 { return LinearBuckets(0.025, 0.025, 40) }

// SlowdownBuckets is the bucket layout of sim_class_slowdown: a completed
// job's latency over its deadline window lives in (0, 1].
func SlowdownBuckets() []float64 { return LinearBuckets(0.1, 0.1, 10) }

// NewSimCollector registers the simulation metric families on reg for a
// server with the given core count and returns the collector.
func NewSimCollector(reg *Registry, cores int) *SimCollector {
	c := &SimCollector{reg: reg, cores: cores}
	ev := reg.CounterVec("sim_events_total",
		"Simulation events by kind; kind=\"invoke\" counts policy invocations, i.e. water-filling power redistributions.",
		"kind")
	c.events = make([]*Counter, len(simEventKinds))
	for _, k := range simEventKinds {
		c.events[int(k)] = ev.With(k.String())
	}
	c.queueDepth = reg.Gauge("sim_queue_depth",
		"Waiting-queue length sampled at the most recent simulation event.")
	c.quality = reg.Histogram("sim_job_quality",
		"Quality credited per departed job, in [0, 1] of the job's maximum.",
		QualityBuckets())
	speedVec := reg.HistogramVec("sim_core_speed_ghz",
		"Planned speed of executed slices per core, GHz (one observation per slice).",
		SpeedBuckets(), "core")
	busyVec := reg.GaugeVec("sim_core_busy_seconds",
		"Accumulated execution time per core, seconds.", "core")
	sliceVec := reg.CounterVec("sim_core_exec_slices_total",
		"Executed plan slices per core.", "core")
	c.util = reg.GaugeVec("sim_core_utilization",
		"Busy fraction of the run span per core, set when the run finishes.", "core")
	c.speed = make([]*Histogram, cores)
	c.busy = make([]*Gauge, cores)
	c.slices = make([]*Counter, cores)
	for i := 0; i < cores; i++ {
		lbl := strconv.Itoa(i)
		c.speed[i] = speedVec.With(lbl)
		c.busy[i] = busyVec.With(lbl)
		c.slices[i] = sliceVec.With(lbl)
		c.util.With(lbl).Set(0)
	}
	c.outcomes = reg.CounterVec("sim_jobs_total",
		"Departed jobs by outcome, recorded when the run finishes.", "outcome")
	for _, o := range []string{"completed", "deadline", "discarded", "shed", "abandoned"} {
		c.outcomes.With(o) // pre-register so zeros are exposed
	}
	return c
}

// Observe implements the simulator's Observer contract; pass this method
// as sim.Config.Observer. It is allocation-free.
func (c *SimCollector) Observe(e sim.Event) {
	if k := int(e.Kind); k >= 0 && k < len(c.events) && c.events[k] != nil {
		c.events[k].Inc()
	}
	c.queueDepth.Set(float64(e.Queue))
	switch e.Kind {
	case sim.EvComplete, sim.EvDeadline, sim.EvDiscard, sim.EvShed, sim.EvAbandon:
		c.quality.Observe(e.Quality)
	}
}

// RecordExec implements sim.Recorder; assign the collector to
// sim.Config.Recorder (or tee it with MultiRecorder to also keep a
// trace). It is allocation-free.
func (c *SimCollector) RecordExec(core int, seg yds.Segment) {
	if core < 0 || core >= c.cores || seg.End <= seg.Start {
		return
	}
	c.speed[core].Observe(seg.Speed)
	c.busy[core].Add(seg.End - seg.Start)
	c.slices[core].Inc()
}

// Finish records the run's aggregate result: outcome counts, normalized
// quality, energy, peak power, span, per-core utilization, and — for
// classed streams — the class-labeled sim_class_* families. Call it
// exactly once, after sim.Run returns.
func (c *SimCollector) Finish(res sim.Result) {
	c.outcomes.With("completed").Add(uint64(res.Completed))
	c.outcomes.With("deadline").Add(uint64(res.Deadlined))
	c.outcomes.With("discarded").Add(uint64(res.Discarded))
	c.outcomes.With("shed").Add(uint64(res.Shed))
	c.outcomes.With("abandoned").Add(uint64(res.Abandoned))
	if len(res.Classes) > 0 {
		classJobs := c.reg.CounterVec("sim_class_jobs_total",
			"Departed jobs by SLO job class and outcome, recorded when the run finishes.",
			"class", "outcome")
		classQuality := c.reg.GaugeVec("sim_class_norm_quality",
			"Normalized quality per SLO job class over the run.", "class")
		for _, cr := range res.Classes {
			classJobs.With(cr.Class, "completed").Add(uint64(cr.Completed))
			classJobs.With(cr.Class, "deadline").Add(uint64(cr.Deadlined))
			classJobs.With(cr.Class, "discarded").Add(uint64(cr.Discarded))
			classJobs.With(cr.Class, "shed").Add(uint64(cr.Shed))
			classJobs.With(cr.Class, "abandoned").Add(uint64(cr.Abandoned))
			classQuality.With(cr.Class).Set(cr.NormQuality)
		}
		// Wait/slowdown need per-job fates; res.Jobs is populated only when
		// the run collected outcomes (Config.CollectJobs).
		if len(res.Jobs) > 0 {
			waits := c.reg.HistogramVec("sim_class_wait_seconds",
				"Response time (departure minus release) of completed jobs per SLO job class, seconds.",
				WaitBuckets(), "class")
			slowdowns := c.reg.HistogramVec("sim_class_slowdown",
				"Latency over deadline window of completed jobs per SLO job class.",
				SlowdownBuckets(), "class")
			for _, o := range res.Jobs {
				if o.Reason != sim.Completed {
					continue
				}
				waits.With(o.Class).Observe(o.Latency())
				if w := o.Deadline - o.Release; w > 0 {
					slowdowns.With(o.Class).Observe(o.Latency() / w)
				}
			}
		}
	}
	c.reg.Gauge("sim_norm_quality",
		"Total quality over the run, normalized by the maximum attainable.").Set(res.NormQuality)
	c.reg.Gauge("sim_energy_joules", "Dynamic energy of the run, J.").Set(res.Energy)
	c.reg.Gauge("sim_peak_power_watts", "Peak observed dynamic power, W.").Set(res.PeakPower)
	c.reg.Gauge("sim_span_seconds", "First release to last departure, s.").Set(res.Span)
	if res.Span > 0 {
		for i := 0; i < c.cores; i++ {
			c.util.With(strconv.Itoa(i)).Set(c.busy[i].Value() / res.Span)
		}
	}
}

// MultiRecorder fans executed slices out to several recorders, so one run
// can feed a schedule trace and a metrics collector at once.
func MultiRecorder(rs ...sim.Recorder) sim.Recorder { return multiRecorder(rs) }

type multiRecorder []sim.Recorder

func (m multiRecorder) RecordExec(core int, seg yds.Segment) {
	for _, r := range m {
		r.RecordExec(core, seg)
	}
}

// MultiObserver fans events out to several observers, in order. It chains
// them rather than looping over them: each call site in the chain always
// calls the same observer, which the CPU predicts, where a loop's one call
// site alternates between them on every event.
func MultiObserver(obs ...sim.Observer) sim.Observer {
	switch len(obs) {
	case 0:
		return func(sim.Event) {}
	case 1:
		return obs[0]
	}
	first, rest := obs[0], MultiObserver(obs[1:]...)
	return func(e sim.Event) {
		first(e)
		rest(e)
	}
}
