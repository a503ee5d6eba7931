package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

func testConfig(servers int) Config {
	server := sim.PaperConfig()
	server.Cores = 4
	server.Budget = 80
	return Config{
		Servers: servers,
		Server:  server,
		Policy:  "des",
	}
}

func testJobs(t *testing.T, rate, duration float64) []job.Job {
	t.Helper()
	wl := workload.DefaultConfig(rate)
	wl.Duration = duration
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return jobs
}

// exactlyEqual compares two cluster results bit for bit, including every
// per-server sub-result.
func exactlyEqual(t *testing.T, a, b Result, label string) {
	t.Helper()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	type pair struct {
		name string
		a, b float64
	}
	check := func(ps []pair) {
		for _, p := range ps {
			if bits(p.a) != bits(p.b) {
				t.Errorf("%s: %s differs: %v (%#x) vs %v (%#x)",
					label, p.name, p.a, bits(p.a), p.b, bits(p.b))
			}
		}
	}
	check([]pair{
		{"Quality", a.Quality, b.Quality},
		{"MaxQuality", a.MaxQuality, b.MaxQuality},
		{"NormQuality", a.NormQuality, b.NormQuality},
		{"Energy", a.Energy, b.Energy},
		{"PeakPowerSum", a.PeakPowerSum, b.PeakPowerSum},
		{"Span", a.Span, b.Span},
	})
	if a.Arrived != b.Arrived || a.Completed != b.Completed || a.Deadlined != b.Deadlined ||
		a.Events != b.Events || a.Invocation != b.Invocation {
		t.Errorf("%s: counters differ: %+v vs %+v", label, a, b)
	}
	if len(a.PerServer) != len(b.PerServer) {
		t.Fatalf("%s: per-server lengths differ: %d vs %d", label, len(a.PerServer), len(b.PerServer))
	}
	for i := range a.PerServer {
		sa, sb := a.PerServer[i], b.PerServer[i]
		if sa.Jobs != sb.Jobs {
			t.Errorf("%s: server %d job count differs: %d vs %d", label, i, sa.Jobs, sb.Jobs)
		}
		check([]pair{
			{"server.BudgetShareW", sa.BudgetShareW, sb.BudgetShareW},
			{"server.Quality", sa.Result.Quality, sb.Result.Quality},
			{"server.Energy", sa.Result.Energy, sb.Result.Energy},
		})
	}
}

// TestDeterministicAcrossWorkers is the tentpole guarantee: a cluster run
// is bit-identical no matter how many workers execute the per-server
// simulations.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := testJobs(t, 240, 60)
	for _, dispatch := range []Dispatch{RoundRobin, LeastLoaded, Hash} {
		cfg := testConfig(8)
		cfg.Dispatch = dispatch
		cfg.GlobalBudget = 0.7 * float64(cfg.Servers) * cfg.Server.Budget

		var base Result
		for i, workers := range []int{1, 4, 16} {
			cfg.Workers = workers
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", dispatch, workers, err)
			}
			if i == 0 {
				base = res
				if res.Arrived != len(jobs) {
					t.Fatalf("%v: arrived %d jobs, dispatched %d", dispatch, res.Arrived, len(jobs))
				}
				continue
			}
			exactlyEqual(t, base, res, dispatch.String())
		}
	}
}

// TestSingleServerParity: a one-server cluster with no global budget is
// exactly the single-server engine.
func TestSingleServerParity(t *testing.T) {
	jobs := testJobs(t, 60, 60)
	cfg := testConfig(1)
	got, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := ParsePolicy(cfg.Policy)
	if err != nil {
		t.Fatal(err)
	}
	server := cfg.Server
	spec.Configure(&server)
	want, err := sim.Run(server, jobs, spec.New())
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(got.Quality) != math.Float64bits(want.Quality) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.Completed != want.Completed || got.Events != want.Events {
		t.Errorf("cluster(M=1) diverged from sim.Run: %+v vs %+v", got, want)
	}
	if got.PerServer[0].BudgetShareW != cfg.Server.Budget {
		t.Errorf("no-hierarchy share = %g, want nominal %g", got.PerServer[0].BudgetShareW, cfg.Server.Budget)
	}
}

// TestOutageReroutesAndReflows: a full-horizon outage on one server must
// (a) route all of its would-be arrivals to healthy servers and (b) hand
// its global-budget share to them.
func TestOutageReroutesAndReflows(t *testing.T) {
	jobs := testJobs(t, 120, 60)
	cfg := testConfig(4)
	cfg.Dispatch = RoundRobin
	// Scarce global budget so shares are demand-driven.
	cfg.GlobalBudget = 0.6 * float64(cfg.Servers) * cfg.Server.Budget

	healthy, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Outage server 2 completely: every core dark for the whole horizon.
	down := 2
	faults := make([][]sim.Fault, cfg.Servers)
	for c := 0; c < cfg.Server.Cores; c++ {
		faults[down] = append(faults[down], sim.Fault{Core: c, Start: 0, End: 1e9, SpeedFactor: 0})
	}
	cfg.Faults = faults
	degraded, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	if got := degraded.PerServer[down].Jobs; got != 0 {
		t.Errorf("outaged server still received %d jobs", got)
	}
	if degraded.Arrived != len(jobs) {
		t.Errorf("lost jobs in reroute: arrived %d, want %d", degraded.Arrived, len(jobs))
	}
	if share := degraded.PerServer[down].BudgetShareW; share != 0 {
		t.Errorf("outaged server still holds %g W of the global budget", share)
	}
	// The released share must reflow: healthy servers now absorb more load,
	// so their time-averaged budgets must not shrink, and at least one must
	// strictly grow.
	grew := false
	for s := 0; s < cfg.Servers; s++ {
		if s == down {
			continue
		}
		h, d := healthy.PerServer[s].BudgetShareW, degraded.PerServer[s].BudgetShareW
		if d < h-1e-9 {
			t.Errorf("server %d share shrank under reflow: %g -> %g W", s, h, d)
		}
		if d > h+1e-9 {
			grew = true
		}
	}
	if !grew {
		t.Error("no healthy server's budget share grew after the outage reflow")
	}
	// Rerouted jobs must land on the three healthy servers.
	total := 0
	for s, sr := range degraded.PerServer {
		if s != down {
			total += sr.Jobs
		}
	}
	if total != len(jobs) {
		t.Errorf("healthy servers hold %d jobs, want all %d", total, len(jobs))
	}
}

// TestChaosFaultsDeterministic: same seed, same schedules; different
// servers draw different schedules.
func TestChaosFaultsDeterministic(t *testing.T) {
	a, err := ChaosFaults(42, 120, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosFaults(42, 120, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("server %d: schedule lengths differ across identical calls", s)
		}
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Errorf("server %d fault %d differs: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
}

// TestClusterUnderChaos: a chaos-faulted cluster run must stay
// deterministic across worker counts and not lose jobs.
func TestClusterUnderChaos(t *testing.T) {
	jobs := testJobs(t, 120, 60)
	cfg := testConfig(4)
	cfg.GlobalBudget = 0.75 * float64(cfg.Servers) * cfg.Server.Budget
	faults, err := ChaosFaults(7, 60, cfg.Servers, cfg.Server.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults

	cfg.Workers = 1
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	exactlyEqual(t, a, b, "chaos")
	if a.Arrived != len(jobs) {
		t.Errorf("arrived %d, want %d", a.Arrived, len(jobs))
	}
}

func TestValidateRejects(t *testing.T) {
	jobs := testJobs(t, 30, 10)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"no servers", func(c *Config) { c.Servers = 0 }},
		{"bad server cores", func(c *Config) { c.Server.Cores = 0 }},
		{"NaN global budget", func(c *Config) { c.GlobalBudget = math.NaN() }},
		{"negative epoch", func(c *Config) { c.Epoch = -1 }},
		{"template faults", func(c *Config) {
			c.Server.Faults = []sim.Fault{{Core: 0, Start: 0, End: 1, SpeedFactor: 0}}
		}},
		{"fault length mismatch", func(c *Config) { c.Faults = make([][]sim.Fault, 2) }},
		{"unknown policy", func(c *Config) { c.Policy = "banana" }},
	}
	for _, tc := range cases {
		cfg := testConfig(4)
		tc.mod(&cfg)
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

func TestParseDispatch(t *testing.T) {
	for in, want := range map[string]Dispatch{
		"": RoundRobin, "rr": RoundRobin, "Round-Robin": RoundRobin,
		"ll": LeastLoaded, "least-loaded": LeastLoaded,
		"hash": Hash,
	} {
		got, err := ParseDispatch(in)
		if err != nil || got != want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDispatch("nope"); err == nil {
		t.Error("ParseDispatch accepted garbage")
	}
}

// routeAll routes a release-ordered job list through one dispatcher,
// returning each job's server and reroute flag.
func routeAll(d Dispatch, servers, cores int, outages [][][]interval, classes []string, jobs []job.Job) (assign []int, rerouted []bool) {
	dp := newDispatcher(d, servers, cores, outages, classes)
	for _, j := range jobs {
		s, moved := dp.route(j)
		assign = append(assign, s)
		rerouted = append(rerouted, moved)
	}
	return assign, rerouted
}

func TestDispatchRoundRobinCumulative(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Demand: 1},
		{ID: 1, Release: 0.1, Deadline: 1.1, Demand: 1},
		{ID: 2, Release: 0.2, Deadline: 1.2, Demand: 1},
		{ID: 3, Release: 0.3, Deadline: 1.3, Demand: 1},
	}
	assign, _ := routeAll(RoundRobin, 3, 1, make([][][]interval, 3), nil, jobs)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if assign[i] != want[i] {
			t.Errorf("job %d -> server %d, want %d", i, assign[i], want[i])
		}
	}
}

func TestDispatchSkipsDownServers(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0.5, Deadline: 1.5, Demand: 1},
		{ID: 1, Release: 0.6, Deadline: 1.6, Demand: 1},
	}
	outages := make([][][]interval, 2)
	outages[0] = [][]interval{{{start: 0, end: 2}}} // server 0: 1 core, dark
	assign, _ := routeAll(RoundRobin, 2, 1, outages, nil, jobs)
	for i, s := range assign {
		if s != 1 {
			t.Errorf("job %d routed to down server (got %d)", i, s)
		}
	}
}

func TestDispatchLeastLoadedBalancesDemand(t *testing.T) {
	// One heavy job then two light ones: LL must send the light jobs to
	// the other server while the heavy one is outstanding.
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 10, Demand: 100},
		{ID: 1, Release: 0.1, Deadline: 10.1, Demand: 1},
		{ID: 2, Release: 0.2, Deadline: 10.2, Demand: 1},
	}
	assign, _ := routeAll(LeastLoaded, 2, 1, make([][][]interval, 2), nil, jobs)
	if assign[0] != 0 {
		t.Fatalf("first job -> server %d, want 0 (tie breaks low)", assign[0])
	}
	if assign[1] != 1 || assign[2] != 1 {
		t.Errorf("light jobs -> servers %d,%d; want both on 1", assign[1], assign[2])
	}
}

func TestDispatchHashSticky(t *testing.T) {
	jobs := []job.Job{
		{ID: 77, Release: 0, Deadline: 1, Demand: 1},
		{ID: 77, Release: 5, Deadline: 6, Demand: 1},
	}
	assign, _ := routeAll(Hash, 8, 1, make([][][]interval, 8), nil, jobs)
	if assign[0] != assign[1] {
		t.Errorf("same ID hashed to different servers: %d vs %d", assign[0], assign[1])
	}
}

// fillEpochs water-fills every epoch of [0, horizon) over the demand
// dispatched to each server, returning per server the epochs' budget
// fractions and the time-averaged share in watts.
func fillEpochs(servers int, server sim.Config, global, epoch, horizon float64,
	perServer [][]job.Job, outages [][][]interval) (fracs [][]float64, shareW []float64) {
	n := int(math.Ceil(horizon / epoch))
	f := newEpochFiller(servers, server, global, epoch, 1.25, outages)
	fracs = make([][]float64, servers)
	demand := make([]float64, servers)
	for e := 0; e < n; e++ {
		for s := range demand {
			demand[s] = 0
			for _, j := range perServer[s] {
				if int(j.Release/epoch) == e {
					demand[s] += j.Demand
				}
			}
		}
		for s, a := range f.fill(e, demand) {
			fracs[s] = append(fracs[s], budgetFrac(a, server.Budget))
		}
	}
	return fracs, f.finishShares(n)
}

func TestEpochBudgetsAmpleBudgetNoWindows(t *testing.T) {
	server := sim.PaperConfig()
	server.Cores = 4
	server.Budget = 80
	// Global budget covers every server's nominal: no throttling.
	fracs, shareW := fillEpochs(3, server, 3*80, 1, 10, make([][]job.Job, 3), make([][][]interval, 3))
	for s := range fracs {
		for e, frac := range fracs[s] {
			if frac != 1 {
				t.Errorf("server %d throttled to %g in epoch %d under ample budget", s, frac, e)
			}
		}
		if math.Abs(shareW[s]-80) > 1e-9 {
			t.Errorf("server %d share = %g, want 80", s, shareW[s])
		}
	}
}

func TestEpochBudgetsScarceBudgetThrottles(t *testing.T) {
	server := sim.PaperConfig()
	server.Cores = 4
	server.Budget = 80
	// Half the fleet's nominal: everyone must be throttled below 1.
	fracs, shareW := fillEpochs(4, server, 0.5*4*80, 1, 10, make([][]job.Job, 4), make([][][]interval, 4))
	sum := 0.0
	for s := range shareW {
		sum += shareW[s]
		for e, frac := range fracs[s] {
			if frac >= 1 || frac < 0 {
				t.Errorf("server %d epoch %d fraction %g, want throttled in [0, 1)", s, e, frac)
			}
		}
	}
	if sum > 0.5*4*80+1e-6 {
		t.Errorf("assigned %g W total, global budget is %g W", sum, 0.5*4*80)
	}
}

func TestEpochBudgetsFollowDemand(t *testing.T) {
	server := sim.PaperConfig()
	server.Cores = 4
	server.Budget = 80
	// Server 0 is busy, server 1 idle; scarce global budget must tilt
	// toward the busy server.
	perServer := make([][]job.Job, 2)
	for i := 0; i < 200; i++ {
		perServer[0] = append(perServer[0], job.Job{
			ID: job.ID(i), Release: float64(i) * 0.05, Deadline: float64(i)*0.05 + 1, Demand: 400,
		})
	}
	_, shareW := fillEpochs(2, server, 0.6*2*80, 1, 10, perServer, make([][][]interval, 2))
	if shareW[0] <= shareW[1] {
		t.Errorf("busy server got %g W, idle server %g W; want busy > idle", shareW[0], shareW[1])
	}
}

func TestEpochBudgetsOutageReleasesShare(t *testing.T) {
	server := sim.PaperConfig()
	server.Cores = 2
	server.Budget = 80
	outages := make([][][]interval, 2)
	outages[1] = [][]interval{
		{{start: 0, end: 10}},
		{{start: 0, end: 10}},
	}
	_, shareW := fillEpochs(2, server, 80, 1, 10, make([][]job.Job, 2), outages)
	if shareW[1] != 0 {
		t.Errorf("fully outaged server holds %g W", shareW[1])
	}
	if math.Abs(shareW[0]-80) > 1e-9 {
		t.Errorf("healthy server share = %g, want the full 80 W", shareW[0])
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]interval{{5, 7}, {1, 3}, {2, 4}, {8, 9}})
	want := []interval{{1, 4}, {5, 7}, {8, 9}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRunStopsOnCancel: a run split into very many near-empty epochs still
// returns the context's error promptly once its caller cancels, because
// the coordinator polls the context at every epoch barrier.
func TestRunStopsOnCancel(t *testing.T) {
	jobs := testJobs(t, 20, 10)
	cfg := testConfig(2)
	cfg.Epoch = 1e-7 // ~1e8 epochs over the run
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Server.Context = ctx
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := Run(cfg, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

// TestCheckEpochs pins the request-boundary epoch cap: at most MaxEpochs
// epochs per run, with 0 meaning the 1 s default.
func TestCheckEpochs(t *testing.T) {
	var ce *cfgerr.Error
	if err := CheckEpochs(30, 1e-9); !errors.As(err, &ce) || ce.Field != "epoch" {
		t.Errorf("tiny epoch: err = %v, want a *cfgerr.Error on epoch", err)
	}
	if err := CheckEpochs(2*MaxEpochs, 0); !errors.As(err, &ce) {
		t.Errorf("default epoch over %d s: err = %v, want *cfgerr.Error", 2*MaxEpochs, err)
	}
	for _, ok := range []struct{ d, e float64 }{{30, 0}, {30, 0.25}, {MaxEpochs, 1}, {60, 60.0 / MaxEpochs}} {
		if err := CheckEpochs(ok.d, ok.e); err != nil {
			t.Errorf("CheckEpochs(%g, %g) = %v, want nil", ok.d, ok.e, err)
		}
	}
}
