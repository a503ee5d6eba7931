package cluster

import (
	"errors"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
)

// resilientConfig is a degraded fleet with the full recovery stack armed:
// per-server chaos outages, retry with backoff, and hedged dispatch for the
// tightest-deadline jobs.
func resilientConfig(t *testing.T, servers int) Config {
	t.Helper()
	cfg := testConfig(servers)
	cfg.GlobalBudget = 0.7 * float64(servers) * cfg.Server.Budget
	cfg.Server.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.02, MaxBackoff: 0.2}
	cfg.Hedge = HedgeConfig{Window: 0.15, Limit: 60}
	faults, err := ChaosFaults(21, 60, servers, cfg.Server.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults
	return cfg
}

// sameRecovery extends exactlyEqual to the recovery counters.
func sameRecovery(t *testing.T, a, b Result, label string) {
	t.Helper()
	if a.Retried != b.Retried || a.Abandoned != b.Abandoned ||
		a.Hedged != b.Hedged || a.HedgeWins != b.HedgeWins {
		t.Errorf("%s: recovery counters differ: retried %d/%d abandoned %d/%d hedged %d/%d wins %d/%d",
			label, a.Retried, b.Retried, a.Abandoned, b.Abandoned, a.Hedged, b.Hedged, a.HedgeWins, b.HedgeWins)
	}
	if !bitsEq(a.RetryQuality, b.RetryQuality) || !bitsEq(a.HedgeQuality, b.HedgeQuality) {
		t.Errorf("%s: recovery quality differs: retry %v/%v hedge %v/%v",
			label, a.RetryQuality, b.RetryQuality, a.HedgeQuality, b.HedgeQuality)
	}
}

func bitsEq(a, b float64) bool { return a == b || (a != a && b != b) }

// TestClusterRetryHedgeDeterministic: a chaos-degraded cluster with retries
// and hedged dispatch stays bit-identical for any worker count, and the
// hedge resolution counts every logical job exactly once.
func TestClusterRetryHedgeDeterministic(t *testing.T) {
	jobs := testJobs(t, 160, 60)
	cfg := resilientConfig(t, 6)

	var base Result
	for i, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = res
			continue
		}
		exactlyEqual(t, base, res, "retry+hedge")
		sameRecovery(t, base, res, "retry+hedge")
	}

	if base.Hedged == 0 {
		t.Error("no jobs hedged despite every deadline window within the hedge window")
	}
	if base.Hedged > cfg.Hedge.Limit {
		t.Errorf("hedged %d jobs over the limit %d", base.Hedged, cfg.Hedge.Limit)
	}
	// Loser subtraction must restore per-logical-job accounting.
	if base.Arrived != len(jobs) {
		t.Errorf("arrived %d after hedge resolution, want %d (each job once)", base.Arrived, len(jobs))
	}
	if got := base.Completed + base.Deadlined + base.Discarded + base.Shed + base.Abandoned; got > base.Arrived {
		t.Errorf("outcomes sum to %d > %d arrivals", got, base.Arrived)
	}
	if base.HedgeQuality < 0 {
		t.Errorf("hedge quality gain is negative: %g", base.HedgeQuality)
	}
	if base.NormQuality < 0 || base.NormQuality > 1 {
		t.Errorf("normalized quality %g out of [0, 1] after subtraction", base.NormQuality)
	}
}

// TestClusterHedgeRecoversQuality pins the rescue mechanism exactly: a job
// dispatched to a server that goes dark mid-execution is stranded there (it
// evacuates into the dead server's queue and misses its deadline with
// partial quality), but its hedge replica on the healthy server completes —
// first-completion-wins credits the full quality, and the dead replica's
// partial outcome is subtracted. The duplicated energy stays visible.
func TestClusterHedgeRecoversQuality(t *testing.T) {
	jobs := []job.Job{{ID: 0, Release: 0, Deadline: 0.15, Demand: 300, Partial: true}}
	cfg := testConfig(2)
	// Round-robin sends job 0 to server 0; all of server 0 goes dark at
	// t = 0.02 and stays dark past the deadline.
	faults := make([][]sim.Fault, cfg.Servers)
	for c := 0; c < cfg.Server.Cores; c++ {
		faults[0] = append(faults[0], sim.Fault{Core: c, Start: 0.02, End: 10, SpeedFactor: 0})
	}
	cfg.Faults = faults

	plain, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completed != 0 {
		t.Fatalf("unhedged job completed despite the outage (%+v)", plain)
	}

	cfg.Hedge = HedgeConfig{Window: 0.15}
	hedged, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedged != 1 || hedged.HedgeWins != 1 {
		t.Fatalf("hedged %d / wins %d, want 1 / 1", hedged.Hedged, hedged.HedgeWins)
	}
	if hedged.Completed != 1 || hedged.Arrived != 1 {
		t.Errorf("hedge resolution: completed %d arrived %d, want 1 / 1", hedged.Completed, hedged.Arrived)
	}
	if hedged.Quality <= plain.Quality {
		t.Errorf("hedge failed to recover quality: %g -> %g", plain.Quality, hedged.Quality)
	}
	if hedged.HedgeQuality <= 0 {
		t.Errorf("hedge quality gain %g, want > 0", hedged.HedgeQuality)
	}
	if hedged.Energy <= plain.Energy {
		t.Errorf("hedging reported no energy cost: %g -> %g (duplicated work must stay visible)",
			plain.Energy, hedged.Energy)
	}
}

// checkpointedRun runs cfg over jobs with an epoch-boundary checkpoint
// every `every` epochs, returning the run's result and each snapshot
// through its JSON round trip. sink, when non-nil, may fail a delivery
// (the crash model).
func checkpointedRun(t *testing.T, cfg Config, jobs []job.Job, every int, sink func(n int) error) (Result, []*StreamSnapshot, error) {
	t.Helper()
	var snaps []*StreamSnapshot
	ck := cfg
	ck.StreamCheckpoint = &StreamCheckpointConfig{
		Every: every,
		Sink: func(s *StreamSnapshot) error {
			if sink != nil {
				if err := sink(len(snaps) + 1); err != nil {
					return err
				}
			}
			b, err := EncodeStreamSnapshot(s)
			if err != nil {
				return err
			}
			snap, err := DecodeStreamSnapshot(b)
			if err != nil {
				return err
			}
			snaps = append(snaps, snap)
			return nil
		},
	}
	res, err := Run(ck, jobs)
	return res, snaps, err
}

// TestClusterCheckpointResume: resuming from any epoch-boundary snapshot of
// a materialized run reproduces the uninterrupted run bit for bit,
// including through the JSON round trip, with chaos faults, retries, and
// hedging active, for any worker count on the resumed remainder.
func TestClusterCheckpointResume(t *testing.T) {
	jobs := testJobs(t, 160, 60)
	cfg := resilientConfig(t, 6)

	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, snaps, err := checkpointedRun(t, cfg, jobs, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactlyEqual(t, base, got, "checkpointed")
	sameRecovery(t, base, got, "checkpointed")
	if len(snaps) < 5 {
		t.Fatalf("%d snapshots over a 60 s run at a 10-epoch cadence", len(snaps))
	}
	for i, k := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		rcfg := cfg
		rcfg.Workers = []int{1, 4, 16}[i]
		res, err := ResumeStream(rcfg, job.NewSliceSource(jobs), snaps[k])
		if err != nil {
			t.Fatalf("resume from epoch %d: %v", snaps[k].Epoch, err)
		}
		exactlyEqual(t, base, res, "resumed")
		sameRecovery(t, base, res, "resumed")
	}
}

// TestClusterCheckpointCrash: a failing sink aborts the run, and the last
// delivered snapshot resumes to the uninterrupted result.
func TestClusterCheckpointCrash(t *testing.T) {
	jobs := testJobs(t, 160, 60)
	cfg := resilientConfig(t, 6)

	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("disk full")
	_, snaps, err := checkpointedRun(t, cfg, jobs, 5, func(n int) error {
		if n > 3 {
			return crash
		}
		return nil
	})
	if !errors.Is(err, crash) {
		t.Fatalf("crashed run returned %v, want the sink error", err)
	}
	if len(snaps) != 3 || snaps[2].Epoch != 15 {
		t.Fatalf("expected 3 snapshots up to epoch 15 to survive the crash, got %d", len(snaps))
	}
	res, err := ResumeStream(cfg, job.NewSliceSource(jobs), snaps[2])
	if err != nil {
		t.Fatal(err)
	}
	exactlyEqual(t, base, res, "crash-resume")
	sameRecovery(t, base, res, "crash-resume")
}

// TestClusterCheckpointRejects pins the typed-error surface: config and
// workload mismatches, checkpointing combined with telemetry or a
// per-server sink, and malformed snapshots.
func TestClusterCheckpointRejects(t *testing.T) {
	jobs := testJobs(t, 60, 20)
	cfg := resilientConfig(t, 4)

	_, snaps, err := checkpointedRun(t, cfg, jobs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot taken")
	}
	snap := snaps[0]

	var ce *cfgerr.Error
	wrong := cfg
	wrong.GlobalBudget *= 0.5
	if _, err := ResumeStream(wrong, job.NewSliceSource(jobs), snap); !errors.As(err, &ce) {
		t.Errorf("resume under a different global budget: err = %v, want *cfgerr.Error", err)
	}
	if _, err := ResumeStream(cfg, job.NewSliceSource(jobs[1:]), snap); !errors.As(err, &ce) {
		t.Errorf("resume with a different workload: err = %v, want *cfgerr.Error", err)
	}
	if _, err := ResumeStream(cfg, job.NewSliceSource(jobs), nil); !errors.As(err, &ce) {
		t.Errorf("nil snapshot: err = %v, want *cfgerr.Error", err)
	}
	if _, err := ResumeStream(testConfig(3), job.NewSliceSource(jobs), snap); !errors.As(err, &ce) {
		t.Errorf("resume on a different fleet size: err = %v, want *cfgerr.Error", err)
	}

	bad := cfg
	bad.Instrument = &Instrument{Traces: true}
	bad.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(*StreamSnapshot) error { return nil }}
	if _, err := Run(bad, jobs); !errors.As(err, &ce) {
		t.Errorf("checkpoint+instrument accepted: %v", err)
	}
	tmpl := cfg
	tmpl.Server.Checkpoint = &sim.CheckpointConfig{Every: 1, Sink: func(*sim.Snapshot) error { return nil }}
	if _, err := Run(tmpl, jobs); !errors.As(err, &ce) {
		t.Errorf("sim checkpoint on the server template accepted: %v", err)
	}
	noSink := cfg
	noSink.StreamCheckpoint = &StreamCheckpointConfig{Every: 1}
	if _, err := Run(noSink, jobs); !errors.As(err, &ce) {
		t.Errorf("sinkless checkpoint accepted: %v", err)
	}
	noCadence := cfg
	noCadence.StreamCheckpoint = &StreamCheckpointConfig{Sink: func(*StreamSnapshot) error { return nil }}
	if _, err := Run(noCadence, jobs); !errors.As(err, &ce) {
		t.Errorf("zero-cadence checkpoint accepted: %v", err)
	}

	if _, err := DecodeStreamSnapshot([]byte(`not json`)); !errors.As(err, &ce) {
		t.Errorf("garbage snapshot decode: err = %v, want *cfgerr.Error", err)
	}
	if _, err := DecodeStreamSnapshot([]byte(`{"version":"dessched-checkpoint/v2","kind":"cluster-stream","servers":2,"per_server":[{}]}`)); !errors.As(err, &ce) {
		t.Errorf("snapshot missing a server's engine state accepted: %v", err)
	}
}

// TestHedgeValidate pins the hedge config's error surface.
func TestHedgeValidate(t *testing.T) {
	var ce *cfgerr.Error
	if err := (HedgeConfig{Window: -1}).Validate(); !errors.As(err, &ce) {
		t.Errorf("negative window accepted: %v", err)
	}
	if err := (HedgeConfig{Window: 0.1, Limit: -2}).Validate(); !errors.As(err, &ce) {
		t.Errorf("negative limit accepted: %v", err)
	}
	if (HedgeConfig{}).Enabled() {
		t.Error("zero hedge config reports enabled")
	}
}
