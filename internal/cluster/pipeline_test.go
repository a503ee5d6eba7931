package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
)

// TestParallelServersCoversEachIndexOnce: the chunked pool runs fn exactly
// once per server index for any worker count, including the defaults
// (workers <= 0), more workers than servers, and an empty fleet.
func TestParallelServersCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
		for _, servers := range []int{0, 1, 2, 7, 8, 1024} {
			calls := make([]atomic.Int32, servers)
			parallelServers(workers, servers, func(s int) { calls[s].Add(1) })
			for s := range calls {
				if n := calls[s].Load(); n != 1 {
					t.Errorf("workers %d servers %d: fn(%d) ran %d times, want 1", workers, servers, s, n)
				}
			}
		}
	}
}

// recordingSource wraps a job.Source and records every Next call. Its
// hook, when set, may rewrite the batch of the call with the given
// index. After the run under test returns, the test marks it returned;
// any later call counts as late.
type recordingSource struct {
	src  job.Source
	hook func(call int, arr []job.Job) []job.Job

	mu       sync.Mutex
	calls    int
	active   int
	returned bool
	late     int
}

func (r *recordingSource) Next(until float64) []job.Job {
	r.mu.Lock()
	call := r.calls
	r.calls++
	r.active++
	if r.returned {
		r.late++
	}
	r.mu.Unlock()
	arr := r.src.Next(until)
	if r.hook != nil {
		arr = r.hook(call, arr)
	}
	r.mu.Lock()
	r.active--
	r.mu.Unlock()
	return arr
}

func (r *recordingSource) Done() bool { return r.src.Done() }

// markReturned records that the run returned and reports the Next calls
// made so far and any still in progress.
func (r *recordingSource) markReturned() (calls, active int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.returned = true
	return r.calls, r.active
}

// checkQuiet fails when a Next call was still running when the run
// returned or started after it.
func (r *recordingSource) checkQuiet(t *testing.T, label string, active int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if active != 0 || r.late != 0 {
		t.Errorf("%s: %d Next calls in progress at return, %d after it", label, active, r.late)
	}
}

// TestRunStreamSourceLifecycle: the coordinator pulls the source ahead of
// the engines, but no Next call outlives RunStream — on a normal finish,
// on an ingest error, and on cancellation — and an ingest error at epoch k
// returns before any engine advances past epoch k.
func TestRunStreamSourceLifecycle(t *testing.T) {
	jobs := testJobs(t, 80, 12)
	last := jobs[len(jobs)-1].Release
	cfg := testConfig(4)
	cfg.Workers = 2

	t.Run("finish", func(t *testing.T) {
		src := &recordingSource{src: job.NewSliceSource(jobs)}
		if _, err := RunStream(cfg, src); err != nil {
			t.Fatal(err)
		}
		calls, active := src.markReturned()
		src.checkQuiet(t, "finish", active)
		// Without a global budget the run ends with the epoch that drains
		// the source: one Next call per epoch up to the last release.
		if want := int(last) + 1; calls != want {
			t.Errorf("finish: %d Next calls, want %d", calls, want)
		}
	})

	t.Run("ingest-error", func(t *testing.T) {
		const k = 5
		src := &recordingSource{src: job.NewSliceSource(jobs), hook: func(call int, arr []job.Job) []job.Job {
			if call != k {
				return arr
			}
			// A job released before everything already ingested.
			return append(append([]job.Job(nil), arr...), job.Job{ID: 1 << 40, Release: 0, Deadline: 1, Demand: 10})
		}}
		ck := cfg
		advanced := 0
		ck.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(s *StreamSnapshot) error {
			advanced = s.Epoch
			return nil
		}}
		_, err := RunStream(ck, src)
		calls, active := src.markReturned()
		src.checkQuiet(t, "ingest-error", active)
		var ce *cfgerr.Error
		if !errors.As(err, &ce) || ce.Field != "order" {
			t.Fatalf("out-of-order job at epoch %d returned %v, want the order *cfgerr.Error", k, err)
		}
		if advanced > k {
			t.Errorf("engines advanced through %d epochs before the epoch-%d ingest error", advanced, k)
		}
		if calls != k+1 {
			t.Errorf("ingest-error: %d Next calls, want %d", calls, k+1)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		const k = 4
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &recordingSource{src: job.NewSliceSource(jobs), hook: func(call int, arr []job.Job) []job.Job {
			if call == k {
				cancel()
			}
			return arr
		}}
		cc := cfg
		cc.Server.Context = ctx
		_, err := RunStream(cc, src)
		calls, active := src.markReturned()
		src.checkQuiet(t, "cancel", active)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
		if calls != k+1 {
			t.Errorf("cancel: %d Next calls, want %d", calls, k+1)
		}
	})

	// A failing checkpoint sink returns while the coordinator may still be
	// pulling the next epoch: Next call k blocks until the epoch-k sink
	// has failed, so a run that returned without waiting for the
	// coordinator would leave it in progress.
	t.Run("sink-error", func(t *testing.T) {
		const k = 3
		crash := errors.New("disk full")
		crashed := make(chan struct{})
		src := &recordingSource{src: job.NewSliceSource(jobs), hook: func(call int, arr []job.Job) []job.Job {
			if call == k {
				<-crashed
			}
			return arr
		}}
		ck := cfg
		ck.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(s *StreamSnapshot) error {
			if s.Epoch == k {
				close(crashed)
				return crash
			}
			return nil
		}}
		_, err := RunStream(ck, src)
		calls, active := src.markReturned()
		src.checkQuiet(t, "sink-error", active)
		if !errors.Is(err, crash) {
			t.Fatalf("crashed run returned %v, want the sink error", err)
		}
		if calls > k+1 {
			t.Errorf("sink-error: %d Next calls, want at most %d", calls, k+1)
		}
	})
}

// TestResumeHedgeInFlightAcrossCheckpoint: a hedged pair released in the
// epoch before a snapshot and departing after it is resolved after resume
// exactly as in the uninterrupted run — the replay must re-register both
// replicas' watches, or their departures go uncaptured.
func TestResumeHedgeInFlightAcrossCheckpoint(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0.2, Deadline: 0.9, Demand: 120, Partial: true},
		{ID: 1, Release: 1.5, Deadline: 2.9, Demand: 600, Partial: true},
		{ID: 2, Release: 1.6, Deadline: 3.5, Demand: 400, Partial: true},
	}
	cfg := testConfig(2)
	cfg.Hedge = HedgeConfig{Window: 1.5}
	// Round-robin sends job 1 to server 1; all of server 1 goes dark at
	// t = 1.7, so the secondary replica on server 0 wins.
	faults := make([][]sim.Fault, cfg.Servers)
	for c := 0; c < cfg.Server.Cores; c++ {
		faults[1] = append(faults[1], sim.Fault{Core: c, Start: 1.7, End: 10, SpeedFactor: 0})
	}
	cfg.Faults = faults

	base, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hedged != 2 || base.HedgeWins != 1 || !(base.HedgeQuality > 0) {
		t.Fatalf("hedged %d / wins %d / quality %g, want 2 / 1 / > 0", base.Hedged, base.HedgeWins, base.HedgeQuality)
	}
	_, snaps, err := checkpointedRun(t, cfg, jobs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap *StreamSnapshot
	for _, s := range snaps {
		if s.Epoch == 2 {
			snap = s
		}
	}
	if snap == nil {
		t.Fatalf("no snapshot at epoch 2 among %d", len(snaps))
	}
	for s, outs := range snap.Captured {
		for _, o := range outs {
			if o.ID == 1 {
				t.Fatalf("job 1's replica on server %d departed before the epoch-2 snapshot (at %g)", s, o.DepartAt)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		rcfg := cfg
		rcfg.Workers = workers
		res, err := ResumeStream(rcfg, job.NewSliceSource(jobs), snap)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("resumed at epoch 2, workers %d", workers)
		exactlyEqual(t, base, res, label)
		sameRecovery(t, base, res, label)
	}
}
