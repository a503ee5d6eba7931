// Streamed cluster runs: the bounded-memory form of Run for fleet scale
// (docs/SCALE.md). Instead of materializing the whole job stream, routing
// it, water-filling every epoch's budget, and only then simulating, the
// streamed pipeline interleaves the three per dispatch epoch:
//
//	pull arrivals < t1  →  validate + route + hedge (sequential)
//	                    →  water-fill the epoch's budget (sequential)
//	                    →  feed + advance every server engine (parallel)
//
// The sequential ingest stage runs the same dispatcher, hedging rules, and
// epochFiller arithmetic as the batch path, in the same order; the per-
// server engines are sim.Stream sessions fed exactly the substreams the
// batch path would have handed them. Results are therefore bit-identical
// to Run for any Workers count, with the engine-lifetime caveats the sim
// package documents (Events/Invocation counts of engines idling through
// the fleet's tail, and no maxEpochs grid stretching).
//
// Memory stays bounded by the fleet's in-flight window: per-epoch batches
// are reused, engines retire departed jobs into running folds, budget
// windows are pruned, and the dispatcher compacts its accounting — nothing
// grows with the total number of jobs except the optional hedge-pair
// bookkeeping (cap it with Hedge.Limit on very long streams).
package cluster

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"sync"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/span"
)

// StreamSnapshotKind discriminates a streamed-cluster snapshot inside the
// shared versioned envelope (sim.SnapshotVersion).
const StreamSnapshotKind = "cluster-stream"

// StreamCheckpointConfig enables epoch-boundary checkpointing on the
// streamed path: after every Every completed dispatch epochs the Sink
// receives a StreamSnapshot of the whole fleet's in-flight state.
// ResumeStream continues from a snapshot by replaying the already-consumed
// arrival prefix through the (cheap, engine-free) ingest stage to rebuild
// the coordinator, then restoring every server engine.
type StreamCheckpointConfig struct {
	// Every is the checkpoint cadence in dispatch epochs (required > 0).
	Every int

	// Sink receives each snapshot. An error aborts the run (the crash
	// model) and is returned from RunStream.
	Sink func(*StreamSnapshot) error
}

// Validate reports configuration errors as typed *cfgerr.Error values.
func (c *StreamCheckpointConfig) Validate() error {
	if c.Every <= 0 {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint cadence must be positive epochs, got %d", c.Every)
	}
	if c.Sink == nil {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint needs a sink")
	}
	return nil
}

// StreamSnapshot is a resumable image of a streamed cluster run at a
// dispatch-epoch boundary. The coordinator's routing, hedging, and budget
// state are deterministic recomputations from the arrival prefix, so they
// are not stored: the config fingerprint pins the configuration, and
// (JobsFed, JobsHash) pin the prefix — ResumeStream replays it from the
// source and verifies both. Only the per-server engine states and the
// already-departed hedge replica outcomes are carried.
type StreamSnapshot struct {
	Version     string `json:"version"`
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"` // fingerprintClusterConfig (no workload)
	Servers     int    `json:"servers"`
	Epoch       int    `json:"epoch"`     // completed dispatch epochs
	JobsFed     int    `json:"jobs_fed"`  // arrivals consumed from the source
	JobsHash    uint64 `json:"jobs_hash"` // rolling FNV over the consumed arrivals

	// Captured holds, per server, the hedged replica outcomes that already
	// departed (sorted by job ID); replicas still in flight are re-captured
	// after resume. Only Quality, DepartAt, and Reason are meaningful.
	Captured [][]sim.JobOutcome `json:"captured,omitempty"`

	// PerServer is each server engine's streamed sim snapshot.
	PerServer []*sim.Snapshot `json:"per_server"`
}

// EncodeStreamSnapshot serializes a streamed-cluster snapshot. JSON
// round-trips float64 exactly, so a decoded snapshot resumes
// bit-identically.
func EncodeStreamSnapshot(s *StreamSnapshot) ([]byte, error) {
	if s == nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: encode snapshot: %v", err)
	}
	return b, nil
}

// DecodeStreamSnapshot parses and structurally validates a streamed-cluster
// snapshot. Malformed input yields a typed *cfgerr.Error, never a panic.
func DecodeStreamSnapshot(b []byte) (*StreamSnapshot, error) {
	var s StreamSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: decode snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *StreamSnapshot) validate() error {
	if s.Version != sim.SnapshotVersion {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot version %q, want %q", s.Version, sim.SnapshotVersion)
	}
	if s.Kind != StreamSnapshotKind {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot kind %q, want %q", s.Kind, StreamSnapshotKind)
	}
	if s.Servers <= 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot has %d servers", s.Servers)
	}
	if s.Epoch < 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot at negative epoch %d", s.Epoch)
	}
	if len(s.PerServer) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds %d engine states for %d servers", len(s.PerServer), s.Servers)
	}
	for i, ps := range s.PerServer {
		if ps == nil {
			return cfgerr.New("cluster", "snapshot", "cluster: snapshot engine state for server %d is missing", i)
		}
	}
	if len(s.Captured) != 0 && len(s.Captured) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds captured outcomes for %d servers, want 0 or %d", len(s.Captured), s.Servers)
	}
	return nil
}

// RunStream dispatches a lazily generated job stream across the fleet one
// epoch at a time — Run's bounded-memory twin. src must yield jobs in
// release order (ID tie-break on equal releases, the order Run sorts
// into); workload.NewStream and workloadspec streams do. Results are
// bit-identical to Run on the materialized stream except for the
// engine-lifetime counters documented in the sim package.
//
// Batch-only knobs are rejected with typed errors: Server.CollectJobs
// (per-job outcome collection grows with the stream), Checkpoint (use
// StreamCheckpoint), full-trace Instrument.Tracer, and Instrument.Traces
// (unsampled span and executed-schedule traces grow with the run).
// Series, Registry, the flight recorder, and a sampling Tracer
// (span.NewSampling) all stay bounded and are supported.
func RunStream(cfg Config, src job.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateStreamed(cfg); err != nil {
		return Result{}, err
	}
	if src == nil {
		return Result{}, cfgerr.New("cluster", "source", "cluster: nil job source")
	}
	return runStream(cfg, src, nil)
}

// ResumeStream continues a checkpointed streamed run: the consumed arrival
// prefix is replayed from src through the ingest stage (no engine work) to
// rebuild the coordinator, verified against the snapshot's rolling hash,
// and every server engine is restored in place. The configuration and the
// source must be those of the original run.
func ResumeStream(cfg Config, src job.Source, snap *StreamSnapshot) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateStreamed(cfg); err != nil {
		return Result{}, err
	}
	if src == nil {
		return Result{}, cfgerr.New("cluster", "source", "cluster: nil job source")
	}
	if snap == nil {
		return Result{}, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	if err := snap.validate(); err != nil {
		return Result{}, err
	}
	if snap.Servers != cfg.Servers {
		return Result{}, cfgerr.New("cluster", "snapshot", "cluster: snapshot covers %d servers, config has %d", snap.Servers, cfg.Servers)
	}
	if got, want := fingerprintClusterConfig(cfg), snap.Fingerprint; got != want {
		return Result{}, cfgerr.New("cluster", "snapshot",
			"cluster: snapshot fingerprint %#x does not match the configuration (%#x) — config, policy, faults, or budget knobs changed", want, got)
	}
	return runStream(cfg, src, snap)
}

// validateStreamed rejects the configuration knobs the streamed path
// cannot honor within its bounded-memory contract.
func validateStreamed(cfg Config) error {
	if cfg.Server.CollectJobs {
		return cfgerr.New("cluster", "server", "cluster: CollectJobs is not supported on streamed runs; per-job outcomes would grow with the stream")
	}
	if cfg.Checkpoint != nil {
		return cfgerr.New("cluster", "checkpoint", "cluster: completed-server checkpointing is not supported on streamed runs; use StreamCheckpoint (epoch-boundary snapshots)")
	}
	if ins := cfg.Instrument; ins != nil {
		if ins.Tracer != nil && !ins.Tracer.Sampled() {
			return cfgerr.New("cluster", "instrument", "cluster: full span traces are not supported on streamed runs (they grow with the run); use a sampling tracer (span.NewSampling) whose retained spans are bounded, or the flight recorder")
		}
		if ins.Traces {
			return cfgerr.New("cluster", "instrument", "cluster: executed-schedule traces are not supported on streamed runs (they grow with the run); Series, Registry, sampled spans, and the flight recorder are")
		}
	}
	return nil
}

// streamCoord is the sequential coordinator of a streamed run: routing,
// validation, hedging, demand accounting, and the budget filler. Engines
// never touch it; it never touches engines — the epoch loop alternates
// between the two, so neither needs locks.
type streamCoord struct {
	cfg      Config
	spec     PolicySpec
	server   sim.Config // configured template (spec.Configure applied)
	epochLen float64
	nominal  float64
	outages  [][][]interval
	dp       *dispatcher
	filler   *epochFiller // nil when GlobalBudget <= 0

	validator job.StreamValidator
	batches   [][]job.Job // current epoch's per-server arrivals (reused)
	demand    []float64   // current epoch's per-server demand (filler only)
	jobs      []int       // arrivals dispatched per server, cumulative
	rerouted  int
	horizon   float64 // max deadline seen
	fed       int
	hash      fnvCluster

	srcDone bool
	nBudget int // budget epochs = ceil(horizon/epochLen), valid once srcDone
	n       int // total epochs to run, valid once srcDone

	// Hedging: pairs in dispatch order, the hedged-ID set, and per-server
	// watch/capture maps the engine observers fill at departure time.
	hedging  bool
	pairs    []hedgePair
	seen     map[job.ID]bool
	watch    []map[job.ID]bool
	captured []map[job.ID]sim.JobOutcome
}

func newStreamCoord(cfg Config) *streamCoord {
	spec := PolicySpec{Name: "custom", New: cfg.NewPolicy}
	if cfg.NewPolicy == nil {
		spec, _ = ParsePolicy(cfg.Policy)
	}
	server := cfg.Server
	if spec.Configure != nil {
		spec.Configure(&server)
	}
	epochLen := cfg.Epoch
	if epochLen == 0 {
		epochLen = 1.0
	}
	headroom := cfg.Headroom
	if headroom == 0 {
		headroom = 1.25
	}
	outages := make([][][]interval, cfg.Servers)
	for s := 0; s < cfg.Servers; s++ {
		if len(cfg.Faults) > 0 {
			outages[s] = mergedOutages(server.Cores, cfg.Faults[s])
		}
	}
	c := &streamCoord{
		cfg:      cfg,
		spec:     spec,
		server:   server,
		epochLen: epochLen,
		nominal:  server.Budget,
		outages:  outages,
		dp:       newDispatcher(cfg.Dispatch, cfg.Servers, server.Cores, outages, cfg.Classes),
		batches:  make([][]job.Job, cfg.Servers),
		jobs:     make([]int, cfg.Servers),
		hedging:  cfg.Hedge.Enabled() && cfg.Servers >= 2,
	}
	c.hash.init()
	if cfg.GlobalBudget > 0 {
		c.filler = newEpochFiller(cfg.Servers, server, cfg.GlobalBudget, epochLen, headroom, outages, false)
		c.demand = make([]float64, cfg.Servers)
	}
	if c.hedging {
		c.seen = make(map[job.ID]bool)
		c.watch = make([]map[job.ID]bool, cfg.Servers)
		c.captured = make([]map[job.ID]sim.JobOutcome, cfg.Servers)
		for s := range c.watch {
			c.watch[s] = make(map[job.ID]bool)
			c.captured[s] = make(map[job.ID]sim.JobOutcome)
		}
	}
	return c
}

// ingest routes one epoch's arrivals: per job, in order — validate, fold
// into the rolling hash, route, account demand and horizon, and apply the
// hedging rules. The per-job operation sequence matches the batch path's
// dispatch + applyHedges + demand bucketing exactly.
func (c *streamCoord) ingest(epoch int, arr []job.Job) error {
	for s := range c.batches {
		c.batches[s] = c.batches[s][:0]
	}
	for s := range c.demand {
		c.demand[s] = 0
	}
	t1 := float64(epoch)*c.epochLen + c.epochLen
	for _, j := range arr {
		if err := c.validator.Check(j); err != nil {
			return err
		}
		if j.Release >= t1 {
			return cfgerr.New("cluster", "source", "cluster: source returned a job released at %g past the epoch end %g", j.Release, t1)
		}
		c.hash.u64(uint64(j.ID))
		c.hash.f64(j.Release)
		c.hash.f64(j.Deadline)
		c.hash.f64(j.Demand)
		c.hash.b(j.Partial)
		if j.Class != "" {
			c.hash.str(j.Class)
		}
		s, moved := c.dp.route(j)
		if moved {
			c.rerouted++
		}
		c.place(j, s)
		if j.Deadline > c.horizon {
			c.horizon = j.Deadline
		}
		c.fed++
		c.maybeHedge(j, s)
	}
	return nil
}

// place appends a job (or replica) to a server's epoch batch with demand
// and count accounting.
func (c *streamCoord) place(j job.Job, s int) {
	c.batches[s] = append(c.batches[s], j)
	c.jobs[s]++
	if c.filler != nil {
		c.demand[s] += j.Demand
	}
}

// maybeHedge applies the hedged-dispatch rules to one routed arrival —
// applyHedges' per-job body, run inline.
func (c *streamCoord) maybeHedge(j job.Job, p int) {
	h := c.cfg.Hedge
	if !c.hedging || j.Deadline-j.Release > h.Window || c.seen[j.ID] {
		return
	}
	if h.Limit > 0 && len(c.pairs) >= h.Limit {
		return
	}
	sec := -1
	for d := 1; d < c.cfg.Servers; d++ {
		q := (p + d) % c.cfg.Servers
		if serverUp(c.server.Cores, c.outages[q], j.Release) {
			sec = q
			break
		}
	}
	if sec < 0 {
		return
	}
	c.seen[j.ID] = true
	c.pairs = append(c.pairs, hedgePair{id: j.ID, demand: j.Demand, class: j.Class, primary: p, secondary: sec})
	c.place(j, sec)
	c.watch[p][j.ID] = true
	c.watch[sec][j.ID] = true
}

// noteDone records the source's exhaustion after an epoch's ingest: the
// horizon is final, so the budget-epoch count (batch's n = ⌈horizon/ε⌉)
// and the total epochs to run become known. Without a global budget there
// is nothing to water-fill past the last arrival, so the run stops after
// the current epoch.
func (c *streamCoord) noteDone(epoch int) {
	if c.srcDone {
		return
	}
	c.srcDone = true
	if c.filler != nil && c.horizon > 0 {
		c.nBudget = int(math.Ceil(c.horizon / c.epochLen))
	}
	c.n = c.nBudget
	if c.n < epoch+1 {
		c.n = epoch + 1
	}
}

// fillable reports whether epoch e lies on the batch path's budget grid —
// the filler must run for exactly the epochs epochBudgets iterates.
func (c *streamCoord) fillable(e int) bool {
	return c.filler != nil && (!c.srcDone || e < c.nBudget)
}

// hedgeObserver returns the engine observer capturing hedged replicas'
// terminal outcomes on server s: the first terminal event of a watched job
// ID records the fields hedge resolution needs. It runs inside server s's
// engine goroutine; the maps are only read by the coordinator after the
// final barrier.
func (c *streamCoord) hedgeObserver(s int) sim.Observer {
	watch, captured := c.watch[s], c.captured[s]
	return func(ev sim.Event) {
		var reason sim.DepartReason
		switch ev.Kind {
		case sim.EvComplete:
			reason = sim.Completed
		case sim.EvDeadline:
			reason = sim.DeadlineHit
		case sim.EvDiscard:
			reason = sim.PolicyDiscard
		case sim.EvShed:
			reason = sim.Shed
		case sim.EvAbandon:
			reason = sim.Abandoned
		default:
			return
		}
		if !watch[ev.Job] {
			return
		}
		if _, dup := captured[ev.Job]; dup {
			return
		}
		captured[ev.Job] = sim.JobOutcome{ID: ev.Job, Class: ev.Class, Quality: ev.Quality, DepartAt: ev.Time, Reason: reason}
	}
}

// serverCfg builds server s's engine config: the configured template plus
// its fault schedule and the streamed run's observers (bounded telemetry
// probes and the hedge capture hook).
func (c *streamCoord) serverCfg(s int, probes []serverProbes) sim.Config {
	scfg := c.server
	if len(c.cfg.Faults) > 0 {
		scfg.Faults = c.cfg.Faults[s]
	}
	ins := c.cfg.Instrument
	var observers []sim.Observer
	var recorders []sim.Recorder
	if ins != nil && ins.Tracer != nil {
		// The sampled per-server tracer: seeded per server index, bounded
		// by rate and the span limit, grafted back with Adopt in index
		// order after the final barrier — bit-identical for any Workers.
		p := &probes[s]
		p.tracer = ins.Tracer.Child(s)
		p.root = p.tracer.StartUnsampled(span.NoSpan, "server", 0)
		p.tracer.Int(p.root, "server", s)
		observers = append(observers, span.Observe(p.tracer, p.root))
	}
	if ins != nil && ins.Flight != nil {
		p := &probes[s]
		p.flight = ins.Flight.Child(s)
		observers = append(observers, p.flight.Observe)
	}
	if ins != nil && ins.Series != nil {
		p := &probes[s]
		p.rec = telemetry.NewSeriesRecorder(ins.Series.Cap())
		p.rec.OnSample = ins.Series.OnSample
		p.sampler = telemetry.NewEpochSampler(p.rec, s, c.epochLen, scfg)
		observers = append(observers, p.sampler.Observe)
		recorders = append(recorders, p.sampler)
	}
	if ins != nil && ins.Registry != nil {
		p := &probes[s]
		p.reg = telemetry.NewRegistry()
		p.col = telemetry.NewSimCollector(p.reg, scfg.Cores)
		observers = append(observers, p.col.Observe)
		recorders = append(recorders, p.col)
	}
	if c.hedging {
		observers = append(observers, c.hedgeObserver(s))
	}
	switch len(observers) {
	case 0:
	case 1:
		scfg.Observer = observers[0]
	default:
		scfg.Observer = telemetry.MultiObserver(observers...)
	}
	switch len(recorders) {
	case 0:
	case 1:
		scfg.Recorder = recorders[0]
	default:
		scfg.Recorder = telemetry.MultiRecorder(recorders...)
	}
	return scfg
}

// snapshot captures the run at a completed-epoch boundary.
func (c *streamCoord) snapshot(streams []*sim.Stream, epoch int) (*StreamSnapshot, error) {
	per := make([]*sim.Snapshot, len(streams))
	for s, st := range streams {
		snap, err := st.Snapshot()
		if err != nil {
			return nil, err
		}
		per[s] = snap
	}
	var captured [][]sim.JobOutcome
	if c.hedging {
		captured = make([][]sim.JobOutcome, len(streams))
		for s := range c.captured {
			if len(c.captured[s]) == 0 {
				continue
			}
			outs := make([]sim.JobOutcome, 0, len(c.captured[s]))
			for _, o := range c.captured[s] {
				outs = append(outs, o)
			}
			sort.Slice(outs, func(a, b int) bool { return outs[a].ID < outs[b].ID })
			captured[s] = outs
		}
	}
	return &StreamSnapshot{
		Version:     sim.SnapshotVersion,
		Kind:        StreamSnapshotKind,
		Fingerprint: fingerprintClusterConfig(c.cfg),
		Servers:     c.cfg.Servers,
		Epoch:       epoch,
		JobsFed:     c.fed,
		JobsHash:    c.hash.h,
		Captured:    captured,
		PerServer:   per,
	}, nil
}

// parallelServers runs fn(s) for every server across a bounded worker
// pool of static index shards, returning after all complete. fn must only
// touch per-server state.
func parallelServers(workers, servers int, fn func(s int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > servers {
		workers = servers
	}
	if workers <= 1 {
		for s := 0; s < servers; s++ {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*servers/workers, (w+1)*servers/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for s := lo; s < hi; s++ {
				fn(s)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// runStream is the validated streamed core shared by RunStream and
// ResumeStream (snap nil for a fresh run).
func runStream(cfg Config, src job.Source, snap *StreamSnapshot) (Result, error) {
	c := newStreamCoord(cfg)
	probes := make([]serverProbes, cfg.Servers)
	streams := make([]*sim.Stream, cfg.Servers)
	errs := make([]error, cfg.Servers)

	start := 0
	if snap != nil {
		// Replay the consumed prefix through the ingest stage only — no
		// engine work, no budget windows pushed — to rebuild the
		// coordinator's routing, hedging, validator, and filler state.
		for e := 0; e < snap.Epoch; e++ {
			arr := src.Next(float64(e)*c.epochLen + c.epochLen)
			if err := c.ingest(e, arr); err != nil {
				return Result{}, err
			}
			if src.Done() {
				c.noteDone(e)
			}
			if c.fillable(e) {
				c.filler.fill(e, c.demand)
			}
		}
		if c.fed != snap.JobsFed || c.hash.h != snap.JobsHash {
			return Result{}, cfgerr.New("cluster", "snapshot",
				"cluster: source does not replay the checkpointed arrival prefix (fed %d jobs, hash %#x; snapshot has %d, %#x) — resume needs the original source", c.fed, c.hash.h, snap.JobsFed, snap.JobsHash)
		}
		for s := range streams {
			st, err := sim.RestoreStream(c.serverCfg(s, probes), c.spec.New(), snap.PerServer[s])
			if err != nil {
				return Result{}, err
			}
			streams[s] = st
			if probes[s].sampler != nil {
				probes[s].sampler.SetBudgetAt(st.BudgetAt)
			}
		}
		if c.hedging {
			for s, outs := range snap.Captured {
				for _, o := range outs {
					c.captured[s][o.ID] = o
				}
			}
		}
		start = snap.Epoch
	} else {
		for s := range streams {
			st, err := sim.NewStream(c.serverCfg(s, probes), c.spec.New())
			if err != nil {
				return Result{}, err
			}
			streams[s] = st
			if probes[s].sampler != nil {
				probes[s].sampler.SetBudgetAt(st.BudgetAt)
			}
		}
	}

	workers := cfg.Workers
	for i := start; ; i++ {
		if c.srcDone && i >= c.n {
			break
		}
		t0 := float64(i) * c.epochLen
		t1 := t0 + c.epochLen
		arr := src.Next(t1)
		if err := c.ingest(i, arr); err != nil {
			return Result{}, err
		}
		if !c.srcDone && src.Done() {
			c.noteDone(i)
			for _, st := range streams {
				st.ExpectMore(false)
			}
		}
		if c.fillable(i) {
			assigned := c.filler.fill(i, c.demand)
			for s, st := range streams {
				st.ExtendBudget(t0, t1, budgetFrac(assigned[s], c.nominal))
			}
		}
		parallelServers(workers, cfg.Servers, func(s int) {
			if errs[s] != nil {
				return
			}
			if len(c.batches[s]) > 0 {
				if errs[s] = streams[s].Feed(c.batches[s]); errs[s] != nil {
					return
				}
			}
			errs[s] = streams[s].Advance(t1)
		})
		for _, err := range errs {
			if err != nil {
				return Result{}, err
			}
		}
		if sc := cfg.StreamCheckpoint; sc != nil && (i+1)%sc.Every == 0 {
			ss, err := c.snapshot(streams, i+1)
			if err != nil {
				return Result{}, err
			}
			if err := sc.Sink(ss); err != nil {
				return Result{}, err
			}
		}
	}

	if c.filler != nil && c.nBudget > 0 {
		for _, st := range streams {
			st.CloseBudget()
		}
	}
	results := make([]sim.Result, cfg.Servers)
	parallelServers(workers, cfg.Servers, func(s int) {
		r, err := streams[s].Finish()
		if err != nil {
			errs[s] = err
			return
		}
		results[s] = r
		if probes[s].tracer != nil {
			probes[s].tracer.End(probes[s].root, r.Span)
		}
		if probes[s].sampler != nil {
			probes[s].sampler.Finish(c.horizon)
		}
		if probes[s].col != nil {
			probes[s].col.Finish(r)
		}
	})
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	var shareW []float64
	if c.filler != nil && c.nBudget > 0 {
		shareW = c.filler.finishShares(c.nBudget)
	} else {
		shareW = make([]float64, cfg.Servers)
		for s := range shareW {
			shareW[s] = c.nominal
		}
	}
	res := aggregate(cfg, results, c.jobs, shareW, func(r *Result) {
		resolveHedgesWith(r, c.pairs, func(s int, id job.ID) (sim.JobOutcome, bool) {
			o, ok := c.captured[s][id]
			return o, ok
		}, func(class string, d float64) float64 { return c.server.QualityFor(class).Eval(d) })
	})
	foldInstrumentation(cfg.Instrument, span.NoSpan, probes, &res)
	return res, nil
}
