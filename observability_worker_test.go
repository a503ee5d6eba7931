package dessched_test

import (
	"bytes"
	"testing"

	"dessched"
)

// chaosStreamCluster runs one streamed cluster under chaos faults, job
// retry, and hedged dispatch with the sampling tracer and flight
// recorder armed, returning the serialized span trace and flight bundle.
func chaosStreamCluster(t *testing.T, workers int, jobs []dessched.Job) (spans, flight []byte, res dessched.ClusterResult) {
	t.Helper()
	cfg := dessched.PaperServer()
	cfg.Cores = 4
	cfg.Budget = 80
	cfg.Retry = dessched.RetryPolicy{MaxAttempts: 2, Backoff: 0.25}

	const servers = 8
	faults, err := dessched.ClusterChaosFaults(7, 8, servers, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	tracer := dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
		Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.25},
	})
	rec := dessched.NewFlightRecorder(dessched.FlightConfig{Depth: 64, Cooldown: -1})
	ccfg := dessched.ClusterConfig{
		Servers:      servers,
		Server:       cfg,
		Dispatch:     dessched.DispatchRoundRobin,
		GlobalBudget: 0.75 * servers * cfg.Budget,
		Faults:       faults,
		Hedge:        dessched.HedgeConfig{Window: 0.5, Limit: 64},
		Workers:      workers,
		Instrument:   &dessched.ClusterInstrument{Tracer: tracer, Flight: rec},
	}
	res, err = dessched.SimulateClusterStream(ccfg, dessched.NewSliceJobSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	var sb, fb bytes.Buffer
	if err := dessched.WriteSpanJSON(&sb, tracer); err != nil {
		t.Fatal(err)
	}
	if err := dessched.WriteFlightJSON(&fb, rec); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes(), fb.Bytes(), res
}

// TestStreamObservabilityWorkerIdentity: the always-on instruments —
// sampled spans and flight-recorder dumps — serialize to byte-identical
// files for any cluster Workers count, over a lazy source, under the
// most adversarial configuration the repo supports (chaos faults, job
// retry, hedged dispatch). This is the property that makes a trace from
// a 16-worker production run comparable to a single-worker repro.
func TestStreamObservabilityWorkerIdentity(t *testing.T) {
	wl := dessched.PaperWorkload(60)
	wl.Duration = 8
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}

	baseSpans, baseFlight, baseRes := chaosStreamCluster(t, 1, jobs)
	if len(baseSpans) == 0 {
		t.Fatal("no span bytes")
	}
	// The chaos plan must actually exercise the triggers, or identity is
	// vacuous.
	bundle, err := dessched.ReadFlightJSON(bytes.NewReader(baseFlight))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Dumps) == 0 {
		t.Fatal("chaos faults tripped no flight dumps; tighten the scenario")
	}
	if baseRes.Retried == 0 && baseRes.Hedged == 0 {
		t.Fatalf("scenario exercised neither retry nor hedge: %+v", baseRes)
	}

	for _, workers := range []int{4, 16} {
		spans, flight, res := chaosStreamCluster(t, workers, jobs)
		if !bytes.Equal(spans, baseSpans) {
			t.Errorf("Workers=%d: span trace diverged from Workers=1 (%d vs %d bytes)",
				workers, len(spans), len(baseSpans))
		}
		if !bytes.Equal(flight, baseFlight) {
			t.Errorf("Workers=%d: flight bundle diverged from Workers=1 (%d vs %d bytes)",
				workers, len(flight), len(baseFlight))
		}
		if res.Quality != baseRes.Quality || res.Completed != baseRes.Completed {
			t.Errorf("Workers=%d: result diverged: %+v vs %+v", workers, res, baseRes)
		}
	}
}
