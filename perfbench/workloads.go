package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"time"

	"dessched"
)

// bimodal4x is the bimodal example spec's two SLO classes at four times
// their rates, kept here so edits to the example cannot change the
// benchmark. The seed and horizon are overridden per run.
//
//go:embed bimodal4x.json
var bimodal4x []byte

// workload is one benchmark input shape. setup builds the config, policy
// factory and inputs for a seed and horizon; everything it does counts as
// set-up time. The returned instance runs the timed simulate call.
type workload struct {
	name    string
	horizon float64 // simulated seconds per timed call
	setup   func(seed uint64, horizon float64) (*instance, error)
}

// instance is a prepared workload. run performs one simulate call, timing
// only the call itself.
type instance struct {
	genTime time.Duration // time inside GenerateWorkload / CompileWorkload
	run     func(v variant) (outcome, sample, error)
}

// variant selects how one simulate call is instrumented.
type variant struct {
	pr      *runProbes // the benchmark's wrappers; nil on untraced calls
	unarmed bool       // classes-chaos without its always-on observers
}

// runProbes are the benchmark's wrappers for one traced call.
type runProbes struct {
	plan   planProbe
	source *timedSource // streamed workloads only
	tr     *tracer
	parent int // span the call's children hang from
}

var workloads = []workload{
	{name: "server-paper", horizon: 600, setup: setupServerPaper},
	{name: "fleet-stream", horizon: 20, setup: setupFleetStream},
	{name: "classes-chaos", horizon: 300, setup: setupClassesChaos},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newDES is the policy every workload runs: DES under core-level DVFS.
func newDES() dessched.Policy { return dessched.NewDES(dessched.CDVFS) }

// policyFor returns a fresh policy, wrapped when the call is traced.
func policyFor(pr *runProbes) dessched.Policy {
	if pr == nil {
		return newDES()
	}
	return pr.plan.wrap(newDES())
}

// setupServerPaper is the paper's server (16 cores, 320 W, continuous
// C-DVFS, paper triggers) under the paper workload at 200 req/s, generated
// up front and run through batch Simulate on one goroutine.
func setupServerPaper(seed uint64, horizon float64) (*instance, error) {
	cfg := dessched.PaperServer()
	dessched.ApplyArch(&cfg, dessched.CDVFS)
	wl := dessched.PaperWorkload(200)
	wl.Duration = horizon
	wl.Seed = seed
	t0 := time.Now()
	jobs, err := dessched.GenerateWorkload(wl)
	gen := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	return &instance{genTime: gen, run: func(v variant) (outcome, sample, error) {
		p := policyFor(v.pr)
		var res dessched.Result
		smp, err := measureCall(func() (err error) {
			res, err = dessched.Simulate(cfg, jobs, p)
			return err
		})
		return fromResult(res), smp, err
	}}, nil
}

// setupFleetStream is the 1,024-server fleet (4 cores × 80 W each,
// round-robin, global budget at 85% of nominal) fed 61,440 req/s of the
// paper workload lazily through SimulateClusterStream. Arrival generation
// happens inside the timed call, so set-up is only the config.
func setupFleetStream(seed uint64, horizon float64) (*instance, error) {
	server := dessched.PaperServer()
	server.Cores = 4
	server.Budget = 80
	const servers = 1024
	base := dessched.ClusterConfig{
		Servers:      servers,
		Server:       server,
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.85 * servers * server.Budget,
		Workers:      runtime.NumCPU(),
	}
	wl := dessched.PaperWorkload(60 * servers)
	wl.Duration = horizon
	wl.Seed = seed
	// Each call needs a fresh source; building one here puts the input in
	// set-up and reports a bad config before any call is timed.
	if _, err := dessched.NewWorkloadStream(wl); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &instance{run: func(v variant) (outcome, sample, error) {
		cfg := base
		cfg.NewPolicy = func() dessched.Policy { return policyFor(v.pr) }
		src, err := dessched.NewWorkloadStream(wl)
		if err != nil {
			return outcome{}, sample{}, err
		}
		if pr := v.pr; pr != nil {
			pr.source = &timedSource{inner: src, tr: pr.tr, parent: pr.parent}
			src = pr.source
		}
		var res dessched.ClusterResult
		smp, err := measureCall(func() (err error) {
			res, err = dessched.SimulateClusterStream(cfg, src)
			return err
		})
		if v.pr != nil {
			v.pr.source.finish(time.Now())
		}
		return fromCluster(res), smp, err
	}}, nil
}

// setupClassesChaos is the two-class spec compiled up front and run
// through batch SimulateCluster on 8 servers × 8 cores × 160 W with
// prio-sjf queues, per-class quality, seeded per-server core faults that
// repair at their window's end, retry, hedging, and the always-on sampling
// tracer and flight recorder.
func setupClassesChaos(seed uint64, horizon float64) (*instance, error) {
	spec, err := dessched.DecodeWorkloadSpec(bimodal4x)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	spec.Seed = seed
	spec.Duration = horizon
	t0 := time.Now()
	jobs, err := dessched.CompileWorkload(spec)
	gen := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	qual, err := dessched.WorkloadQualityByClass(spec)
	if err != nil {
		return nil, fmt.Errorf("class quality: %w", err)
	}
	server := dessched.PaperServer()
	server.Cores = 8
	server.Budget = 160
	server.QueueOrder = dessched.OrderPrioSJF
	server.ClassPriority = dessched.WorkloadPriorityByClass(spec)
	server.ClassQuality = qual
	server.Retry = dessched.RetryPolicy{MaxAttempts: 3, Backoff: 0.05}
	const servers = 8
	faults, err := dessched.ClusterChaosFaults(seed, horizon, servers, server.Cores)
	if err != nil {
		return nil, fmt.Errorf("chaos plan: %w", err)
	}
	base := dessched.ClusterConfig{
		Servers:      servers,
		Server:       server,
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.85 * servers * server.Budget,
		Faults:       faults,
		Hedge:        dessched.HedgeConfig{Window: 0.15},
		Workers:      runtime.NumCPU(),
	}
	return &instance{genTime: gen, run: func(v variant) (outcome, sample, error) {
		cfg := base
		cfg.NewPolicy = func() dessched.Policy { return policyFor(v.pr) }
		var spans *dessched.SpanTracer
		var flight *dessched.FlightRecorder
		if !v.unarmed {
			spans = dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
				Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
			})
			flight = dessched.NewFlightRecorder(dessched.FlightConfig{})
			cfg.Instrument = &dessched.ClusterInstrument{Tracer: spans, Flight: flight}
		}
		var res dessched.ClusterResult
		smp, err := measureCall(func() (err error) {
			res, err = dessched.SimulateCluster(cfg, jobs)
			return err
		})
		out := fromCluster(res)
		if !v.unarmed {
			out.spansKept = spans.Len()
			out.flightDumps = len(flight.Dumps())
		}
		return out, smp, err
	}}, nil
}
