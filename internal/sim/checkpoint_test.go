package sim_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/core"
	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

// checkpointScenario is one workload/config shape the golden resume test
// must hold under.
type checkpointScenario struct {
	name  string
	cfg   func() sim.Config
	jobs  int
	seed  uint64
	chaos bool // add a seeded chaos schedule (faults + budget drops)
}

func checkpointScenarios() []checkpointScenario {
	plain := func() sim.Config {
		cfg := sim.PaperConfig()
		cfg.Cores = 4
		cfg.Budget = 80
		return cfg
	}
	retrying := func() sim.Config {
		cfg := chaoticConfig()
		cfg.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.02, MaxBackoff: 0.2}
		return cfg
	}
	return []checkpointScenario{
		{name: "plain", cfg: plain, jobs: 150, seed: 7},
		{name: "chaotic-admission", cfg: chaoticConfig, jobs: 200, seed: 11},
		{name: "chaos-with-retries", cfg: retrying, jobs: 200, seed: 11, chaos: true},
	}
}

func (sc checkpointScenario) build(t testing.TB) (sim.Config, []sim.Fault, []workload.Burst) {
	t.Helper()
	cfg := sc.cfg()
	var bursts []workload.Burst
	if sc.chaos {
		cc := sim.DefaultChaos(sc.seed, 2, cfg.Cores)
		cc.MTTR = 0.3
		plan, err := cc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		bursts = plan.Apply(&cfg)
	}
	core.ApplyArch(&cfg, core.CDVFS)
	cfg.CollectJobs = true
	return cfg, cfg.Faults, bursts
}

func (sc checkpointScenario) stream(t testing.TB, bursts []workload.Burst) []job.Job {
	t.Helper()
	wl := workload.DefaultConfig(float64(sc.jobs))
	wl.Duration = 2
	wl.Seed = sc.seed
	wl.Bursts = bursts
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// sameResult asserts bit-identity (Float64bits for floats) of everything a
// Result carries, including per-job outcomes.
func sameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	floats := [][3]any{
		{"Quality", got.Quality, want.Quality},
		{"Energy", got.Energy, want.Energy},
		{"IdleEnergy", got.IdleEnergy, want.IdleEnergy},
		{"PeakPower", got.PeakPower, want.PeakPower},
		{"SkippedTime", got.SkippedTime, want.SkippedTime},
		{"RetryQuality", got.RetryQuality, want.RetryQuality},
		{"Span", got.Span, want.Span},
	}
	for _, f := range floats {
		if !bitsEqual(f[1].(float64), f[2].(float64)) {
			t.Errorf("%s: %s = %v, want %v", label, f[0], f[1], f[2])
		}
	}
	ints := [][3]any{
		{"Arrived", got.Arrived, want.Arrived},
		{"Completed", got.Completed, want.Completed},
		{"Deadlined", got.Deadlined, want.Deadlined},
		{"Discarded", got.Discarded, want.Discarded},
		{"Shed", got.Shed, want.Shed},
		{"Requeued", got.Requeued, want.Requeued},
		{"Retried", got.Retried, want.Retried},
		{"Abandoned", got.Abandoned, want.Abandoned},
		{"Invocation", got.Invocation, want.Invocation},
		{"Events", got.Events, want.Events},
		{"BudgetViolations", got.BudgetViolations, want.BudgetViolations},
	}
	for _, f := range ints {
		if f[1].(int) != f[2].(int) {
			t.Errorf("%s: %s = %d, want %d", label, f[0], f[1], f[2])
		}
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d job outcomes, want %d", label, len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("%s: job outcome %d differs: %+v vs %+v", label, i, got.Jobs[i], want.Jobs[i])
		}
	}
}

// Checkpointing must be invisible: a run that snapshots every 200 ms is
// bit-identical to the same run without checkpointing.
func TestCheckpointTransparent(t *testing.T) {
	for _, sc := range checkpointScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			cfg, _, bursts := sc.build(t)
			jobs := sc.stream(t, bursts)

			base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
			if err != nil {
				t.Fatal(err)
			}

			var snaps []*sim.Snapshot
			ck := cfg
			ck.Checkpoint = &sim.CheckpointConfig{
				Every: 0.2,
				Sink:  func(s *sim.Snapshot) error { snaps = append(snaps, s); return nil },
			}
			got, err := sim.Run(ck, jobs, core.New(core.CDVFS))
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("only %d snapshots over a ~2 s run at 0.2 s period", len(snaps))
			}
			sameResult(t, "checkpointed", got, base)
		})
	}
}

// Resuming from any snapshot — early, middle, or late — must reproduce the
// uninterrupted run bit for bit, including through a JSON encode/decode
// round trip of the snapshot.
func TestResumeBitIdentical(t *testing.T) {
	for _, sc := range checkpointScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			cfg, _, bursts := sc.build(t)
			jobs := sc.stream(t, bursts)

			base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
			if err != nil {
				t.Fatal(err)
			}

			var snaps []*sim.Snapshot
			ck := cfg
			ck.Checkpoint = &sim.CheckpointConfig{
				Every: 0.2,
				Sink:  func(s *sim.Snapshot) error { snaps = append(snaps, s); return nil },
			}
			if _, err := sim.Run(ck, jobs, core.New(core.CDVFS)); err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("need at least 2 snapshots, got %d", len(snaps))
			}
			for _, k := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				// Round-trip through the serialized form: JSON carries
				// float64 exactly, so decode(encode(s)) resumes identically.
				b, err := sim.EncodeSnapshot(snaps[k])
				if err != nil {
					t.Fatal(err)
				}
				snap, err := sim.DecodeSnapshot(b)
				if err != nil {
					t.Fatal(err)
				}
				// Resume without further checkpointing: the restored heap
				// still carries a checkpoint event, which must be dropped.
				got, err := sim.Resume(cfg, core.New(core.CDVFS), snap)
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", k, err)
				}
				sameResult(t, sc.name, got, base)
			}
		})
	}
}

// A sink error aborts the run — the crash model — and the last delivered
// snapshot resumes to the uninterrupted result.
func TestResumeAfterCrash(t *testing.T) {
	sc := checkpointScenarios()[2] // chaos + retries: the hardest case
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)

	base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
	if err != nil {
		t.Fatal(err)
	}

	crash := errors.New("disk full")
	var last *sim.Snapshot
	n := 0
	ck := cfg
	ck.Checkpoint = &sim.CheckpointConfig{
		Every: 0.2,
		Sink: func(s *sim.Snapshot) error {
			if n++; n > 2 {
				return crash
			}
			last = s
			return nil
		},
	}
	if _, err := sim.Run(ck, jobs, core.New(core.CDVFS)); !errors.Is(err, crash) {
		t.Fatalf("crashed run returned %v, want the sink error", err)
	}
	if last == nil {
		t.Fatal("no snapshot survived the crash")
	}
	got, err := sim.Resume(cfg, core.New(core.CDVFS), last)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "crash-resume", got, base)
}

// Resume must refuse a snapshot taken under different physics or policy.
func TestResumeRejectsMismatch(t *testing.T) {
	sc := checkpointScenarios()[0]
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)

	var snap *sim.Snapshot
	ck := cfg
	ck.Checkpoint = &sim.CheckpointConfig{
		Every: 0.2,
		Sink:  func(s *sim.Snapshot) error { snap = s; return nil },
	}
	if _, err := sim.Run(ck, jobs, core.New(core.CDVFS)); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot taken")
	}

	wrongBudget := cfg
	wrongBudget.Budget = cfg.Budget * 2
	var ce *cfgerr.Error
	if _, err := sim.Resume(wrongBudget, core.New(core.CDVFS), snap); !errors.As(err, &ce) {
		t.Errorf("resume under a different budget: err = %v, want *cfgerr.Error", err)
	}
	if _, err := sim.Resume(cfg, core.NewPlainRR(core.CDVFS), snap); err == nil {
		t.Error("resume under a different policy accepted")
	}
}

// A v1 snapshot — whose heap held every arrival, deadline and plan segment —
// cannot be resumed by an engine that keeps those events elsewhere: decoding
// and resuming both refuse it with a typed error.
func TestSnapshotRejectsV1(t *testing.T) {
	sc := checkpointScenarios()[0]
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)
	var snap *sim.Snapshot
	ck := cfg
	ck.Checkpoint = &sim.CheckpointConfig{
		Every: 0.5,
		Sink:  func(s *sim.Snapshot) error { snap = s; return nil },
	}
	if _, err := sim.Run(ck, jobs, core.New(core.CDVFS)); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Version != sim.SnapshotVersion || sim.SnapshotVersion != "dessched-checkpoint/v2" {
		t.Fatalf("snapshot version %v, want dessched-checkpoint/v2", snap)
	}
	b, err := sim.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(b, []byte(`"dessched-checkpoint/v2"`), []byte(`"dessched-checkpoint/v1"`), 1)
	var ce *cfgerr.Error
	if _, err := sim.DecodeSnapshot(v1); !errors.As(err, &ce) || !strings.Contains(err.Error(), "v1") {
		t.Errorf("decoding a v1 snapshot: err = %v, want a *cfgerr.Error naming v1", err)
	}
	old := *snap
	old.Version = "dessched-checkpoint/v1"
	if _, err := sim.Resume(cfg, core.New(core.CDVFS), &old); !errors.As(err, &ce) {
		t.Errorf("resuming a v1 snapshot: err = %v, want *cfgerr.Error", err)
	}
}
