// The cluster execution path. Run and RunStream both pass their arrivals
// through one two-stage pipeline: while the engine pool advances dispatch
// epoch i, the coordinator goroutine prepares epoch i+1.
//
//	coordinator (one goroutine):  prep(i+1): pull arrivals < t1
//	                              → validate + route + hedge
//	                              → water-fill the epoch's budget
//	engine pool (parallel):       feed + advance every server through epoch i
//	barrier (caller's goroutine): checkpoint epoch i; hand epoch i+1's
//	                              budget, end-of-arrivals and hedge
//	                              watches to the engines
//
// The coordinator owns routing, hedging, demand accounting, and the budget
// filler and writes each epoch's output into one of two alternating
// epochIn buffers; the per-server engines are sim.Stream sessions fed
// their substreams epoch by epoch from the other buffer, by a pool whose
// workers claim chunks of servers from a shared counter. Neither stage
// reads state the other writes, so results are bit-identical for any
// Workers count.
//
// Memory stays bounded by the fleet's in-flight window: per-epoch batches
// are reused, engines retire departed jobs into running folds, budget
// windows are pruned, and the dispatcher compacts its accounting. Only
// what the caller asks for grows with the number of jobs: the hedge-pair
// bookkeeping (cap it with Hedge.Limit on very long streams),
// Server.CollectJobs, a full (unsampled) span tracer, and
// Instrument.Traces.
package cluster

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/mix"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/span"
	"dessched/internal/trace"
)

// RunStream dispatches a lazily generated job stream across the fleet one
// epoch at a time. src must yield jobs in release order (ID tie-break on
// equal releases); workload.NewStream, workloadspec streams, and
// job.NewSliceSource do.
func RunStream(cfg Config, src job.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if src == nil {
		return Result{}, cfgerr.New("cluster", "source", "cluster: nil job source")
	}
	return run(cfg, src, nil)
}

// streamCoord is the sequential coordinator of a cluster run: routing,
// validation, hedging, demand accounting, the budget filler, and the
// coordinator-level telemetry (span skeleton, dispatch log, budget
// windows). Engines never touch it; it never touches engines. Its prep
// stage runs on its own goroutine, concurrently with the engines, and
// hands them its output only through an epochIn the caller applies at
// the next barrier, so neither side needs locks.
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
	bufs      [2]epochIn // epoch e's coordinator output is bufs[e%2]
	demand    []float64  // current epoch's per-server demand (filler only)
	jobs      []int      // arrivals dispatched per server, cumulative
	rerouted  int
	horizon   float64 // max deadline seen
	fed       int
	hash      fnvCluster

	srcDone bool
	nBudget int // budget epochs = ceil(horizon/epochLen), valid once srcDone
	n       int // total epochs to run, valid once srcDone

	// Hedging: pairs in dispatch order, the hedged-ID set, and per-server
	// watch/capture maps the engine observers read and fill at departure
	// time. Only the caller's goroutine writes watch, at barriers.
	hedging  bool
	pairs    []hedgePair
	seen     map[job.ID]bool
	watch    []map[job.ID]bool
	captured []map[job.ID]sim.JobOutcome

	// Span skeleton (Instrument.Tracer): the "cluster" root and the
	// "dispatch" summary; one "epoch" span is added per fill.
	tracer      *span.Tracer
	root        span.ID
	dispatch    span.ID
	lastRelease float64

	// Instrument.Traces inputs: every primary dispatch decision, and the
	// merged per-server budget windows with the open window's fraction
	// and left edge (a fraction of 1 means "no window").
	traces    bool
	events    []telemetry.DispatchEvent
	windows   [][]sim.BudgetFault
	openFrac  []float64
	openStart []float64
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
		jobs:     make([]int, cfg.Servers),
		hedging:  cfg.Hedge.Enabled() && cfg.Servers >= 2,
	}
	c.hash = fnvCluster{mix.NewFNV()}
	for b := range c.bufs {
		c.bufs[b].batches = make([][]job.Job, cfg.Servers)
	}
	if cfg.GlobalBudget > 0 {
		c.filler = newEpochFiller(cfg.Servers, server, cfg.GlobalBudget, epochLen, headroom, outages)
		c.demand = make([]float64, cfg.Servers)
	}
	if ins := cfg.Instrument; ins != nil && ins.Tracer != nil {
		tr := ins.Tracer
		c.tracer = tr
		c.root = tr.StartUnsampled(span.NoSpan, "cluster", 0)
		tr.Int(c.root, "servers", cfg.Servers)
		tr.String(c.root, "policy", spec.Name)
		tr.String(c.root, "dispatch", cfg.Dispatch.String())
		tr.Float(c.root, "global_budget_w", cfg.GlobalBudget)
		c.dispatch = tr.StartUnsampled(c.root, "dispatch", 0)
	}
	if ins := cfg.Instrument; ins != nil && ins.Traces {
		c.traces = true
		c.windows = make([][]sim.BudgetFault, cfg.Servers)
		c.openFrac = make([]float64, cfg.Servers)
		c.openStart = make([]float64, cfg.Servers)
		for s := range c.openFrac {
			c.openFrac[s] = 1
		}
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

// epochIn is one epoch's coordinator output, applied to the engines at
// the barrier before that epoch's feed. The coordinator fills epoch i+1's
// while the engines read epoch i's, so two alternate; their slices are
// reused across epochs.
type epochIn struct {
	stop     bool        // the run ended before this epoch
	err      error       // the ingest's error
	batches  [][]job.Job // per-server arrivals and hedge replicas
	noMore   bool        // the source ran dry in this epoch: ExpectMore(false)
	filled   bool        // assigned holds this epoch's per-server budget
	assigned []float64
	watch    []watchIns // hedged replicas the engine observers must capture
	fed      int        // arrivals consumed through this epoch
	hash     uint64     // rolling hash of those arrivals
}

// watchIns marks job id's replica on server s as hedged.
type watchIns struct {
	s  int
	id job.ID
}

// prep runs the coordinator's stage of epoch e into bufs[e%2] and returns
// it: the stop check, the source pull, ingest, end-of-source accounting,
// and the budget fill. It writes nothing an engine reads, so it may run
// concurrently with the engines' work on epoch e-1.
func (c *streamCoord) prep(e int, src job.Source) *epochIn {
	in := &c.bufs[e%2]
	in.stop, in.err, in.noMore, in.filled = false, nil, false, false
	in.watch = in.watch[:0]
	if c.srcDone && e >= c.n {
		in.stop = true
		return in
	}
	// A batch used for the first time starts at the capacity its twin has
	// grown to, instead of growing again by append.
	other := c.bufs[(e+1)%2].batches
	for s, b := range in.batches {
		if cap(b) == 0 && cap(other[s]) > 0 {
			in.batches[s] = make([]job.Job, 0, cap(other[s]))
		} else {
			in.batches[s] = b[:0]
		}
	}
	if in.err = c.ingest(e, src.Next(float64(e)*c.epochLen+c.epochLen), in); in.err != nil {
		return in
	}
	if !c.srcDone && src.Done() {
		c.noteDone(e)
		in.noMore = true
	}
	if c.fillable(e) {
		in.assigned = append(in.assigned[:0], c.fill(e)...)
		in.filled = true
	}
	in.fed, in.hash = c.fed, c.hash.Sum
	return in
}

// apply hands epoch [t0, t1)'s coordinator output to the engines, at the
// barrier before the epoch's feed: the hedge watches, the end of
// arrivals, and the epoch's budget. During a resume replay streams is nil
// and only the watches take.
func (c *streamCoord) apply(in *epochIn, streams []*sim.Stream, t0, t1 float64) {
	for _, w := range in.watch {
		c.watch[w.s][w.id] = true
	}
	if in.noMore {
		for _, st := range streams {
			st.ExpectMore(false)
		}
	}
	if in.filled {
		for s, st := range streams {
			st.ExtendBudget(t0, t1, budgetFrac(in.assigned[s], c.nominal))
		}
	}
}

// ingest routes one epoch's arrivals into in: per job, in order —
// validate, fold into the rolling hash, route, account demand and
// horizon, and apply the hedging rules.
func (c *streamCoord) ingest(epoch int, arr []job.Job, in *epochIn) error {
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
		c.hash.U64(uint64(j.ID))
		c.hash.F64(j.Release)
		c.hash.F64(j.Deadline)
		c.hash.F64(j.Demand)
		c.hash.Bool(j.Partial)
		if j.Class != "" {
			c.hash.str(j.Class)
		}
		s, moved := c.dp.route(j)
		if moved {
			c.rerouted++
		}
		if c.traces {
			c.events = append(c.events, telemetry.DispatchEvent{Time: j.Release, Job: int64(j.ID), Server: s, Rerouted: moved})
		}
		c.lastRelease = j.Release
		c.place(in, j, s)
		if j.Deadline > c.horizon {
			c.horizon = j.Deadline
		}
		c.fed++
		c.maybeHedge(in, j, s)
	}
	return nil
}

// place appends a job (or replica) to a server's epoch batch with demand
// and count accounting.
func (c *streamCoord) place(in *epochIn, j job.Job, s int) {
	in.batches[s] = append(in.batches[s], j)
	c.jobs[s]++
	if c.filler != nil {
		c.demand[s] += j.Demand
	}
}

// maybeHedge applies the hedged-dispatch rules to one routed arrival: the
// secondary replica goes to the next up server after the primary. Both
// replicas' watches are deferred to the epoch's barrier (apply), since
// the engine observers read the watch maps while prep runs.
func (c *streamCoord) maybeHedge(in *epochIn, j job.Job, p int) {
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
	c.place(in, j, sec)
	in.watch = append(in.watch, watchIns{p, j.ID}, watchIns{sec, j.ID})
}

// noteDone records the source's exhaustion after an epoch's ingest: the
// horizon is final, so the budget-epoch count ⌈horizon/ε⌉ and the total
// epochs to run become known. Without a global budget there is nothing to
// water-fill past the last arrival, so the run stops after the current
// epoch.
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

// fillable reports whether epoch e lies on the budget grid: every epoch
// while arrivals are still expected, then the first ⌈horizon/ε⌉.
func (c *streamCoord) fillable(e int) bool {
	return c.filler != nil && (!c.srcDone || e < c.nBudget)
}

// fill water-fills epoch e over the demand ingested for it, recording the
// epoch span and the merged budget windows when asked. The returned slice
// is the filler's scratch buffer, valid until the next call.
func (c *streamCoord) fill(e int) []float64 {
	assigned := c.filler.fill(e, c.demand)
	t0 := float64(e) * c.epochLen
	if c.tracer != nil {
		level, total := 0.0, 0.0
		for _, a := range assigned {
			if a > level {
				level = a
			}
			total += a
		}
		ep := c.tracer.StartUnsampled(c.root, "epoch", t0)
		c.tracer.Int(ep, "epoch", e)
		c.tracer.Float(ep, "water_level_w", level)
		c.tracer.Float(ep, "used_w", total)
		c.tracer.Float(ep, "leftover_w", c.cfg.GlobalBudget-total)
		c.tracer.End(ep, t0+c.epochLen)
	}
	if c.traces {
		for s, a := range assigned {
			if frac := budgetFrac(a, c.nominal); frac != c.openFrac[s] {
				c.closeWindow(s, t0)
				c.openFrac[s], c.openStart[s] = frac, t0
			}
		}
	}
	return assigned
}

// closeWindow ends server s's open budget window at end, keeping it when
// it throttles (full-budget stretches record nothing).
func (c *streamCoord) closeWindow(s int, end float64) {
	if frac, start := c.openFrac[s], c.openStart[s]; frac < 1 && end > start {
		c.windows[s] = append(c.windows[s], sim.BudgetFault{Start: start, End: end, Fraction: frac})
	}
}

// hedgeObserver returns the engine observer capturing hedged replicas'
// terminal outcomes on server s: the first terminal event of a watched job
// ID records the fields hedge resolution needs. It runs inside server s's
// engine goroutine; the caller's goroutine writes watch and reads captured
// only at barriers.
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
// its fault schedule, the telemetry probes the Instrument asks for, and
// the hedge capture hook.
func (c *streamCoord) serverCfg(s int, probes []serverProbes) sim.Config {
	scfg := c.server
	if len(c.cfg.Faults) > 0 {
		scfg.Faults = c.cfg.Faults[s]
	}
	ins := c.cfg.Instrument
	var observers []sim.Observer
	var recorders []sim.Recorder
	if ins != nil && ins.Tracer != nil {
		// Child derives a per-server tracer: a plain bounded tracer from a
		// plain parent, a seeded per-server sampler from a sampling parent.
		// Either way it is grafted back with Adopt in index order after the
		// final barrier — bit-identical for any Workers.
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
	if ins != nil && ins.Traces {
		p := &probes[s]
		p.trace = trace.New(scfg.Cores)
		recorders = append(recorders, p.trace)
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

// snapshot captures the run at a completed-epoch boundary; in is the
// last completed epoch's input, whose arrival cursor the snapshot pins
// (the coordinator may already have ingested the next epoch).
func (c *streamCoord) snapshot(streams []*sim.Stream, epoch int, in *epochIn) (*StreamSnapshot, error) {
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
		JobsFed:     in.fed,
		JobsHash:    in.hash,
		Captured:    captured,
		PerServer:   per,
	}, nil
}

// parallelServers runs fn(s) for every server across a bounded worker
// pool, returning after all complete. Workers claim chunks of about
// servers/(16·workers) indices from a shared counter, so when one worker
// shares its CPU with the coordinator the others take the remaining
// servers. fn must only touch per-server state.
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
	chunk := max(servers/(16*workers), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= servers {
					return
				}
				for s := lo; s < min(lo+chunk, servers); s++ {
					fn(s)
				}
			}
		}()
	}
	wg.Wait()
}

// run is the validated core shared by Run, RunStream, and ResumeStream
// (snap nil for a fresh run) — the one driver of the server engines.
func run(cfg Config, src job.Source, snap *StreamSnapshot) (Result, error) {
	c := newStreamCoord(cfg)
	probes := make([]serverProbes, cfg.Servers)
	streams := make([]*sim.Stream, cfg.Servers)
	errs := make([]error, cfg.Servers)

	start := 0
	if snap != nil {
		// Replay the consumed prefix through the coordinator stage only —
		// no engine work, no budget windows pushed — to rebuild the
		// coordinator's routing, hedging, validator, and filler state and
		// the hedge watches of replicas still in flight.
		for e := 0; e < snap.Epoch; e++ {
			in := c.prep(e, src)
			if in.err != nil {
				return Result{}, in.err
			}
			c.apply(in, nil, 0, 0)
		}
		if c.fed != snap.JobsFed || c.hash.Sum != snap.JobsHash {
			return Result{}, cfgerr.New("cluster", "snapshot",
				"cluster: source does not replay the checkpointed arrival prefix (fed %d jobs, hash %#x; snapshot has %d, %#x) — resume needs the original source", c.fed, c.hash.Sum, snap.JobsFed, snap.JobsHash)
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

	// The coordinator prepares epoch i+1 on its own goroutine while the
	// pool advances epoch i. Every return waits for an outstanding prep,
	// so src is never called after run returns.
	workers := cfg.Workers
	ctx := cfg.Server.Context
	done := make(chan *epochIn, 1)
	pending := false
	startPrep := func(e int) {
		pending = true
		go func() { done <- c.prep(e, src) }()
	}
	defer func() {
		if pending {
			<-done
		}
	}()
	startPrep(start)
	for i := start; ; i++ {
		in := <-done
		pending = false
		if in.stop {
			break
		}
		// Every epoch is a fleet-wide barrier: poll cancellation here too,
		// so a run of many near-empty epochs stops with its caller.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if in.err != nil {
			return Result{}, in.err
		}
		t0 := float64(i) * c.epochLen
		t1 := t0 + c.epochLen
		c.apply(in, streams, t0, t1)
		startPrep(i + 1)
		parallelServers(workers, cfg.Servers, func(s int) {
			if errs[s] != nil {
				return
			}
			if len(in.batches[s]) > 0 {
				if errs[s] = streams[s].Feed(in.batches[s]); errs[s] != nil {
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
			ss, err := c.snapshot(streams, i+1, in)
			if err != nil {
				return Result{}, err
			}
			if err := sc.Sink(ss); err != nil {
				return Result{}, err
			}
		}
	}

	budgeted := c.filler != nil && c.nBudget > 0
	var shareW []float64
	if budgeted {
		for _, st := range streams {
			st.CloseBudget()
		}
		shareW = c.filler.finishShares(c.nBudget)
	} else {
		shareW = make([]float64, cfg.Servers)
		for s := range shareW {
			shareW[s] = c.nominal
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
		if p := &probes[s]; p.tracer != nil {
			p.tracer.Int(p.root, "jobs", c.jobs[s])
			p.tracer.Float(p.root, "budget_share_w", shareW[s])
			p.tracer.End(p.root, r.Span)
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

	res := aggregate(cfg, results, c.jobs, shareW, func(r *Result) {
		resolveHedgesWith(r, c.pairs, func(s int, id job.ID) (sim.JobOutcome, bool) {
			o, ok := c.captured[s][id]
			return o, ok
		}, func(class string, d float64) float64 { return c.server.QualityFor(class).Eval(d) })
	})
	if c.tracer != nil {
		c.tracer.End(c.root, c.horizon)
		c.tracer.Int(c.dispatch, "jobs", c.fed)
		c.tracer.Int(c.dispatch, "rerouted", c.rerouted)
		if c.fed > 0 {
			c.tracer.End(c.dispatch, c.lastRelease)
		}
	}
	if c.traces {
		if budgeted {
			end := float64(c.nBudget) * c.epochLen
			for s := range c.windows {
				c.closeWindow(s, end)
			}
		}
		res.Traces = make([]*trace.Trace, cfg.Servers)
		for s := range probes {
			res.Traces[s] = probes[s].trace
		}
		res.DispatchEvents = c.events
		res.BudgetWindows = c.windows
	}
	foldInstrumentation(cfg.Instrument, c.root, probes, &res)
	return res, nil
}
