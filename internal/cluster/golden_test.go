package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/span"
	"dessched/internal/workloadspec"
)

// goldenPath holds the pinned digests of TestClusterGolden, one block per
// case. The values were recorded once and must never be regenerated to
// make a change pass: a differing digest means the change altered what a
// cluster run computes.
const goldenPath = "testdata/cluster_golden.txt"

// goldenClassJobs is a two-class stream heavy enough to load a 4-server
// fleet under a scarce global budget.
func goldenClassJobs(t *testing.T) []job.Job {
	t.Helper()
	spec := &workloadspec.Spec{
		Schema:   workloadspec.SchemaV1,
		Name:     "golden-two-class",
		Duration: 4,
		Seed:     23,
		Classes: []workloadspec.ClassSpec{
			{Name: "interactive", Rate: 160, Deadline: 0.15, Priority: 2,
				Demand: workloadspec.DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000}},
			{Name: "batch", Rate: 20, Deadline: 1, Priority: 1,
				Demand: workloadspec.DemandSpec{Dist: "uniform", Min: 200, Max: 800}},
		},
	}
	jobs, err := workloadspec.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// goldenDigest renders every pinned field of a result: the float bits of
// the fleet aggregate, each class entry, each server's share, quality and
// energy, and every count except the engine-lifetime Events/Invocation.
func goldenDigest(r Result) string {
	var b strings.Builder
	x := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	fmt.Fprintf(&b, "fleet q=%s maxq=%s normq=%s e=%s peak=%s retryq=%s hedgeq=%s span=%s\n",
		x(r.Quality), x(r.MaxQuality), x(r.NormQuality), x(r.Energy), x(r.PeakPowerSum),
		x(r.RetryQuality), x(r.HedgeQuality), x(r.Span))
	fmt.Fprintf(&b, "counts arrived=%d completed=%d deadlined=%d discarded=%d shed=%d requeued=%d retried=%d abandoned=%d hedged=%d wins=%d violations=%d\n",
		r.Arrived, r.Completed, r.Deadlined, r.Discarded, r.Shed, r.Requeued, r.Retried, r.Abandoned,
		r.Hedged, r.HedgeWins, r.BudgetViolations)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "class %s q=%s maxq=%s normq=%s arrived=%d completed=%d deadlined=%d discarded=%d shed=%d abandoned=%d\n",
			c.Class, x(c.Quality), x(c.MaxQuality), x(c.NormQuality),
			c.Arrived, c.Completed, c.Deadlined, c.Discarded, c.Shed, c.Abandoned)
	}
	for _, s := range r.PerServer {
		fmt.Fprintf(&b, "server %d jobs=%d share=%s q=%s e=%s\n",
			s.Server, s.Jobs, x(s.BudgetShareW), x(s.Result.Quality), x(s.Result.Energy))
	}
	return b.String()
}

func fnvHex(p []byte) string {
	h := fnv.New64a()
	h.Write(p)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestClusterGolden pins cluster results to values recorded before the
// batch and streamed cluster paths were merged: every dispatch policy with
// the global budget on and off, a chaos case with retry and hedging, and
// an instrumented case whose series, merged metrics, dispatch log, and
// budget windows are hashed. Unlike the batch-vs-stream identity tests,
// it cannot pass by both sides changing together.
func TestClusterGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{}
	var order []string
	for _, blk := range strings.Split(string(want), "\n\n") {
		blk = strings.TrimSpace(blk)
		if blk == "" {
			continue
		}
		name, body, _ := strings.Cut(blk, "\n")
		name = strings.TrimPrefix(name, "case ")
		blocks[name] = body + "\n"
		order = append(order, name)
	}

	classed := goldenClassJobs(t)
	type goldenCase struct {
		name string
		cfg  func() Config
		jobs []job.Job
	}
	var cases []goldenCase
	for _, d := range []Dispatch{RoundRobin, LeastLoaded, Hash, ByClass} {
		for _, budget := range []bool{false, true} {
			d, budget := d, budget
			name := d.String() + "/unbounded"
			if budget {
				name = d.String() + "/global-budget"
			}
			cases = append(cases, goldenCase{name: name, jobs: classed, cfg: func() Config {
				cfg := testConfig(4)
				cfg.Dispatch = d
				cfg.Server.QueueOrder = sim.OrderPrioSJF
				cfg.Server.ClassPriority = map[string]int{"interactive": 2, "batch": 1}
				if d == ByClass {
					cfg.Classes = []string{"interactive", "batch"}
				}
				if budget {
					cfg.GlobalBudget = 0.7 * 4 * cfg.Server.Budget
					cfg.Epoch = 0.5
				}
				return cfg
			}})
		}
	}
	cases = append(cases, goldenCase{name: "chaos-retry-hedge", jobs: testJobs(t, 160, 20), cfg: func() Config {
		cfg := resilientConfig(t, 6)
		cfg.Workers = 4
		return cfg
	}})

	got := map[string]string{}
	for _, c := range cases {
		res, err := Run(c.cfg(), c.jobs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = goldenDigest(res)
	}

	// The instrumented case: every sink but the span tracer and flight
	// recorder, whose contents count engine events.
	{
		cfg := testConfig(4)
		cfg.GlobalBudget = 0.75 * 4 * cfg.Server.Budget
		cfg.Faults = [][]sim.Fault{
			nil,
			{{Core: 0, Start: 1, End: 3, SpeedFactor: 0}, {Core: 1, Start: 1, End: 3, SpeedFactor: 0},
				{Core: 2, Start: 1, End: 3, SpeedFactor: 0}, {Core: 3, Start: 1, End: 3, SpeedFactor: 0}},
			{{Core: 1, Start: 2, End: 4, SpeedFactor: 0.5}},
			nil,
		}
		cfg.Hedge = HedgeConfig{Window: 0.12}
		ins := &Instrument{
			Series:   telemetry.NewSeriesRecorder(0),
			Registry: telemetry.NewRegistry(),
			Traces:   true,
		}
		cfg.Instrument = ins
		res, err := Run(cfg, testJobs(t, 240, 5))
		if err != nil {
			t.Fatal(err)
		}
		var series, metrics bytes.Buffer
		if err := telemetry.WriteSeriesJSON(&series, ins.Series); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WritePrometheus(&metrics, ins.Registry.Snapshot()); err != nil {
			t.Fatal(err)
		}
		d := goldenDigest(res)
		d += fmt.Sprintf("series %s\nregistry %s\ndispatch %d %s\nwindows %s\ntraces %s\n",
			fnvHex(series.Bytes()), fnvHex(metrics.Bytes()),
			len(res.DispatchEvents), fnvHex([]byte(fmt.Sprint(res.DispatchEvents))),
			fnvHex([]byte(fmt.Sprint(res.BudgetWindows))),
			fnvHex([]byte(fmt.Sprint(traceEntries(res)))))
		got["instrumented"] = d
	}

	if len(got) != len(blocks) {
		t.Errorf("golden file has %d cases %v, test runs %d", len(blocks), order, len(got))
	}
	for name, g := range got {
		w, ok := blocks[name]
		if !ok {
			t.Errorf("%s: no golden block", name)
			continue
		}
		if g != w {
			t.Errorf("%s: digest differs from the golden\ngot:\n%s\nwant:\n%s", name, g, w)
		}
	}
}

// traceEntries flattens the executed-schedule traces for hashing.
func traceEntries(r Result) [][]string {
	out := make([][]string, len(r.Traces))
	for s, tr := range r.Traces {
		for _, e := range tr.Entries {
			out[s] = append(out[s], fmt.Sprintf("%+v", e))
		}
	}
	return out
}

// TestFingerprintPins pins the stable hashes that snapshots and ledger
// entries store — the sim and cluster config fingerprints, the per-server
// chaos schedules derived from a seed, and seeded span-sampler decisions —
// for fixed inputs, so refactoring the hashers cannot silently change them.
func TestFingerprintPins(t *testing.T) {
	cfg := testConfig(3)
	cfg.GlobalBudget = 150
	cfg.Hedge = HedgeConfig{Window: 0.1, Limit: 7}
	cfg.Dispatch = ByClass
	cfg.Classes = []string{"interactive", "batch"}
	cfg.Server.ClassPriority = map[string]int{"interactive": 2, "batch": 1}
	faults, err := ChaosFaults(9, 20, cfg.Servers, cfg.Server.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults
	server := cfg.Server
	server.Faults = faults[0]

	tr := span.NewSampling(span.SampleConfig{Seed: 5, Rate: 0.5, Rates: map[string]float64{"replan": 0.1}})
	child := tr.Child(3)
	var kept strings.Builder
	for i := 0; i < 64; i++ {
		for _, tt := range []*span.Tracer{tr, child} {
			for _, name := range []string{"replan", "fault-edge"} {
				if tt.Start(span.NoSpan, name, 0) != span.NoSpan {
					kept.WriteByte('1')
				} else {
					kept.WriteByte('0')
				}
			}
		}
	}

	got := fmt.Sprintf("sim=%016x cluster=%016x chaos=%s sampler=%s",
		sim.FingerprintConfig(&server, "des"), FingerprintConfig(cfg),
		fnvHex([]byte(fmt.Sprint(faults))), fnvHex([]byte(kept.String())))
	const want = "sim=f5639f2033fc0b0e cluster=92df19c35a4c5502 chaos=d0e981d062b995af sampler=9898e320e98998d1"
	if got != want {
		t.Errorf("fingerprints changed:\ngot  %s\nwant %s", got, want)
	}
}
