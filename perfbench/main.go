// Command perfbench is the repository's benchmark. It drives the public
// dessched facade from outside, one workload per invocation, as a closed
// loop with one caller: each simulate call starts when the previous one
// returns. It checks every call's modelled output and prints the metrics
// named in BENCHMARK.json, the last line being one JSON object.
//
//	bash perfbench/run.sh --workload server-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics with the benchmark's
// own wrappers off. With --trace 1 it alternates wrapped and bare calls,
// reports the per-layer metrics, and writes the spans and a CPU profile
// under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// metric is one reported figure: its name and unit as in BENCHMARK.json.
type metric struct{ name, unit string }

// endToEnd are reported by untraced runs, perLayer by traced ones.
var (
	endToEnd = []metric{
		{"jobs_per_s", "1/s"},
		{"setup_s", "s"},
		{"peak_rss_mib", "MiB"},
		{"alloc_bytes_per_job", "B/job"},
		{"norm_quality", "ratio"},
		{"energy_j_per_job", "J/job"},
	}
	perLayer = []metric{
		{"workload.gen_s", "s"},
		{"workload.next_s", "s"},
		{"workload.next_calls", "count"},
		{"core.plan_calls", "count"},
		{"core.plan_s", "s"},
		{"core.plan_us_p50", "us"},
		{"core.plan_us_p99", "us"},
		{"core.queue_at_plan_mean", "jobs"},
		{"sim.events_per_job", "events/job"},
		{"sim.self_s", "s"},
		{"sim.retried", "count"},
		{"sim.requeued", "count"},
		{"sim.abandoned", "count"},
		{"cluster.epochs", "count"},
		{"cluster.epoch_ms_p50", "ms"},
		{"cluster.epoch_ms_p90", "ms"},
		{"cluster.cpu_util", "ratio"},
		{"cluster.hedged", "count"},
		{"cluster.hedge_win_ratio", "ratio"},
		{"telemetry.spans_kept", "count"},
		{"telemetry.flight_dumps", "count"},
		{"telemetry.overhead_ratio", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"bench.trace_overhead", "ratio"},
	}
)

// minCalls is the fewest timed calls (or traced rounds) a run makes,
// however long each one takes.
const minCalls = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// report is the result line the benchmark ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if os.Getenv(childEnv) == "" {
		defs := endToEnd
		if opt.trace {
			defs = perLayer
		}
		os.Exit(measureInChild(defs))
	}
	rep, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func parseFlags(args []string) (options, error) {
	var opt options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: server-paper, fleet-stream or classes-chaos")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 30, "host seconds of timed calls")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&opt.out, "out", ".bench_out", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
	}
	if _, err := workloadByName(opt.workload); err != nil {
		return opt, err
	}
	opt.trace = *trace == 1
	return opt, nil
}

// runner makes the calls of one invocation and keeps its correctness
// tally: every call is counted, and none is dropped or retried.
type runner struct {
	w         workload
	opt       options
	inst      *instance
	attempted int
	failed    int
	fp        string // fingerprint every call must reproduce
	log       io.Writer
}

// call runs one simulate call and checks its output. ok is false when the
// call errored or failed a check; its figures are then not used.
func (r *runner) call(v variant) (out outcome, smp sample, ok bool) {
	r.attempted++
	out, smp, err := r.inst.run(v)
	if err == nil {
		err = out.check()
	}
	if err == nil {
		switch fp := out.fingerprint(); {
		case r.fp == "":
			r.fp = fp
		case fp != r.fp:
			err = fmt.Errorf("modelled-result fingerprint %s differs from the first call's %s", fp, r.fp)
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "%s%d%s: %v\n", callLine, r.attempted, failedMark, err)
		return out, smp, false
	}
	fmt.Fprintf(r.log, "%s%d: ok, %.3f s\n", callLine, r.attempted, smp.wall)
	return out, smp, true
}

// setUp rebuilds the workload's config, policy and inputs after a GC,
// like a timed call. One sample repeats the build until minSetupSample has
// passed (a single build wherever jobs are generated up front) and reports
// the mean, so a build of a few microseconds is timed as steadily as one of
// a tenth of a second. It returns the seconds per build and the part of
// them spent generating jobs.
func (r *runner) setUp(tr *tracer) (setupS, genS float64, err error) {
	const minSetupSample = 20 * time.Millisecond
	r.inst = nil // let the previous inputs go before the GC, not after
	runtime.GC()
	var gen time.Duration
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minSetupSample {
		inst, err := r.w.setup(r.opt.seed, r.w.horizon)
		if err != nil {
			return 0, 0, fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		r.inst = inst
		gen += inst.genTime
		n++
	}
	d := time.Since(t0)
	setupS, genS = d.Seconds()/float64(n), gen.Seconds()/float64(n)
	tr.span("setup", rootSpan, t0, t0.Add(d), map[string]float64{"builds": float64(n), "gen_s": genS})
	return setupS, genS, nil
}

// warmUp makes one set-up and one call, checked but not timed, so lazy
// initialization and cold caches stay out of the figures.
func (r *runner) warmUp() error {
	if _, _, err := r.setUp(nil); err != nil {
		return err
	}
	r.call(variant{})
	return nil
}

func (r *runner) report(metrics map[string]float64, defs []metric) report {
	rep := report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	rep.Correct = r.failed == 0 && r.attempted > 0
	for _, m := range defs {
		rep.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	return rep
}

func run(opt options, log io.Writer) (report, error) {
	w, err := workloadByName(opt.workload)
	if err != nil {
		return report{}, err
	}
	r := &runner{w: w, opt: opt, log: log}
	fmt.Fprintf(log, "perfbench %s: seed %d, %g simulated s per call, %d CPUs, %s, trace %v\n",
		w.name, opt.seed, w.horizon, runtime.NumCPU(), runtime.Version(), opt.trace)
	if opt.trace {
		return runTraced(r)
	}
	return runEndToEnd(r)
}

// runEndToEnd alternates a set-up and a bare call for opt.seconds and
// reports the medians, so set-up and call times are sampled over the same
// stretch of host time.
func runEndToEnd(r *runner) (report, error) {
	if err := r.warmUp(); err != nil {
		return report{}, err
	}
	var jps, alloc, setup []float64
	var out outcome
	start := time.Now()
	for i := 0; i < minCalls || time.Since(start).Seconds() < r.opt.seconds; i++ {
		s, _, err := r.setUp(nil)
		if err != nil {
			return report{}, err
		}
		setup = append(setup, s)
		o, smp, ok := r.call(variant{})
		if !ok {
			continue
		}
		out = o
		jps = append(jps, float64(o.arrived)/smp.wall)
		alloc = append(alloc, float64(smp.alloc)/float64(o.arrived))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return report{}, err
	}
	m := map[string]float64{
		"jobs_per_s":          median(jps),
		"setup_s":             median(setup),
		"peak_rss_mib":        rss,
		"alloc_bytes_per_job": median(alloc),
		"norm_quality":        out.normQuality,
		"energy_j_per_job":    out.energy / float64(max(out.arrived, 1)),
	}
	fmt.Fprintf(r.log, "%d timed calls of %d jobs in %.1f s\n", len(jps), out.arrived, time.Since(start).Seconds())
	fmt.Fprintf(r.log, "jobs_per_s by call: %.0f\n", jps)
	fmt.Fprintf(r.log, "fingerprint %s seed %d: %s\n", r.w.name, r.opt.seed, r.fp)
	fmt.Fprintf(r.log, "%-22s %-7s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	spread := map[string][]float64{"jobs_per_s": jps, "setup_s": setup, "alloc_bytes_per_job": alloc}
	for _, d := range endToEnd {
		xs := spread[d.name]
		if xs == nil {
			xs = []float64{m[d.name]}
		}
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(r.log, "%-22s %-7s %14.6g %14.6g %14.6g %7.2f%%\n", d.name, d.unit, med, q1, q3, 100*(q3-q1)/med)
	}
	// fail_frac is 0 on a healthy run, so the result line carries it as
	// the failed and attempted counts rather than as a metric.
	fmt.Fprintf(r.log, "%-22s %-7s %14.6g  (%d of %d calls)\n", "fail_frac", "ratio",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return r.report(m, endToEnd), nil
}

// runTraced alternates bare and wrapped calls (and, on classes-chaos,
// calls without the always-on observers), so drift on the host hits every
// variant alike. It then makes one more wrapped call under the CPU
// profiler and writes the spans and the profile under opt.out.
func runTraced(r *runner) (report, error) {
	tr := newTracer()
	if err := r.warmUp(); err != nil {
		return report{}, err
	}
	var (
		gen, cpuUtil, gcCycles, gcCPU, planS, selfS []float64
		nextS, nextCalls, planCalls                 []float64
		tracedOverBare, armedOverUnarmed            []float64
		plan                                        planAcc
		next, epochs                                hist
		traced                                      outcome
	)
	chaos := r.w.name == "classes-chaos"
	start := time.Now()
	for round := 0; round < minCalls || time.Since(start).Seconds() < r.opt.seconds; round++ {
		_, g, err := r.setUp(tr)
		if err != nil {
			return report{}, err
		}
		gen = append(gen, g)
		// Alternate which variant goes first; the armed/unarmed pair of
		// classes-chaos runs back to back.
		order := []string{"bare", "traced"}
		if chaos {
			order = []string{"bare", "unarmed", "traced"}
		}
		if round%2 == 1 {
			slices.Reverse(order)
		}
		var bareWall, unarmedWall, tracedWall float64
		for _, v := range order {
			switch v {
			case "bare":
				_, smp, ok := r.call(variant{})
				if !ok {
					continue
				}
				bareWall = smp.wall
				cpuUtil = append(cpuUtil, smp.cpu/(smp.wall*float64(runtime.NumCPU())))
				gcCycles = append(gcCycles, float64(smp.gcCycles))
				gcCPU = append(gcCPU, smp.gcCPU)
			case "unarmed":
				if _, smp, ok := r.call(variant{unarmed: true}); ok {
					unarmedWall = smp.wall
				}
			case "traced":
				pr := &runProbes{tr: tr, parent: tr.reserve("run", rootSpan)}
				o, smp, ok := r.call(variant{pr: pr})
				tr.set(pr.parent, smp.start, smp.end(),
					map[string]float64{"jobs": float64(o.arrived), "ok": b2f(ok)})
				if !ok {
					continue
				}
				traced = o
				tracedWall = smp.wall
				p := pr.plan.fold()
				plan.calls += p.calls
				plan.queueSum += p.queueSum
				plan.h.merge(&p.h)
				planCalls = append(planCalls, float64(p.calls))
				planS = append(planS, p.total.Seconds())
				selfS = append(selfS, smp.wall-p.total.Seconds())
				if s := pr.source; s != nil {
					nextS = append(nextS, s.total.Seconds())
					nextCalls = append(nextCalls, float64(s.calls))
					next.merge(&s.next)
					epochs.merge(&s.epochs)
				}
			}
		}
		// Both variants of a pair ran on the same inputs, so the ratio of
		// their wall times is the ratio of their jobs_per_s.
		if bareWall > 0 && tracedWall > 0 {
			tracedOverBare = append(tracedOverBare, bareWall/tracedWall)
		}
		if bareWall > 0 && unarmedWall > 0 {
			armedOverUnarmed = append(armedOverUnarmed, bareWall/unarmedWall)
		}
	}
	profile, err := profiledCall(r, tr)
	if err != nil {
		return report{}, err
	}

	m := map[string]float64{
		"workload.gen_s":           median(gen),
		"workload.next_s":          median(nextS),
		"workload.next_calls":      median(nextCalls),
		"core.plan_calls":          median(planCalls),
		"core.plan_s":              median(planS),
		"core.plan_us_p50":         plan.h.quantile(0.5) / 1e3,
		"core.plan_us_p99":         plan.h.quantile(0.99) / 1e3,
		"core.queue_at_plan_mean":  float64(plan.queueSum) / float64(max(plan.calls, 1)),
		"sim.events_per_job":       float64(traced.events) / float64(max(traced.arrived, 1)),
		"sim.retried":              float64(traced.retried),
		"sim.requeued":             float64(traced.requeued),
		"sim.abandoned":            float64(traced.abandoned),
		"cluster.epochs":           median(nextCalls),
		"cluster.epoch_ms_p50":     epochs.quantile(0.5) / 1e6,
		"cluster.epoch_ms_p90":     epochs.quantile(0.9) / 1e6,
		"cluster.cpu_util":         median(cpuUtil),
		"cluster.hedged":           float64(traced.hedged),
		"telemetry.spans_kept":     float64(traced.spansKept),
		"telemetry.flight_dumps":   float64(traced.flightDumps),
		"telemetry.overhead_ratio": median(armedOverUnarmed),
		"bench.trace_overhead":     median(tracedOverBare),
		"runtime.gc_cycles":        median(gcCycles),
		"runtime.gc_cpu_frac":      median(gcCPU),
	}
	if traced.hedged > 0 {
		m["cluster.hedge_win_ratio"] = float64(traced.hedgeWins) / float64(traced.hedged)
	}
	// The engine's own time is only separable from the planner's where
	// both run on one goroutine.
	if r.w.name == "server-paper" {
		m["sim.self_s"] = median(selfS)
	}

	tr.close(map[string]float64{"rounds": float64(len(gen)), "attempted": float64(r.attempted), "failed": float64(r.failed)})
	spans := filepath.Join(r.opt.out, fmt.Sprintf("%s-seed%d.spans.json", r.w.name, r.opt.seed))
	err = writeJSON(spans, traceFile{
		Schema: "perfbench-spans/v1", Workload: r.w.name, Seed: r.opt.seed,
		Fingerprint: r.fp, CPUProfile: filepath.Base(profile), Spans: tr.spans,
		Histograms: map[string]histJSON{
			"core.plan": plan.h.export(), "workload.next": next.export(), "cluster.epoch": epochs.export(),
		},
	})
	if err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(r.log, "%d traced rounds in %.1f s; spans %s, CPU profile %s\n", len(gen), time.Since(start).Seconds(), spans, profile)
	fmt.Fprintf(r.log, "fingerprint %s seed %d: %s\n", r.w.name, r.opt.seed, r.fp)
	for _, d := range perLayer {
		fmt.Fprintf(r.log, "%-26s %-11s %14.6g\n", d.name, d.unit, m[d.name])
	}
	return r.report(m, perLayer), nil
}

// profiledCall makes one wrapped call under the CPU profiler, outside the
// measured rounds, and returns the profile's path.
func profiledCall(r *runner, tr *tracer) (string, error) {
	if err := os.MkdirAll(r.opt.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(r.opt.out, fmt.Sprintf("%s-seed%d.cpu.pprof", r.w.name, r.opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	pr := &runProbes{tr: tr, parent: tr.reserve("profiled-run", rootSpan)}
	_, smp, ok := r.call(variant{pr: pr})
	pprof.StopCPUProfile()
	tr.set(pr.parent, smp.start, smp.end(), map[string]float64{"ok": b2f(ok)})
	return path, f.Close()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
