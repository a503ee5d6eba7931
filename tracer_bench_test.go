package dessched

import "testing"

// BenchmarkArmedTracerPerRun measures what the always-on observability
// stack of `desim bench`'s cdvfs-traced scenario (a sampling tracer keeping
// 1% of replans, plus a flight recorder) adds to one run, without the
// engine's own cost: building both, wiring them in through the options,
// and feeding them the event stream of the -quick cdvfs-single run. The
// engine's run time over the same horizon is the denominator of the
// spans_overhead_ratio that bench gates.
func BenchmarkArmedTracerPerRun(b *testing.B) {
	cfg := PaperServer()
	ApplyArch(&cfg, CDVFS)
	wl := PaperWorkload(200)
	wl.Duration = 1
	jobs, err := GenerateWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	var evs []SimEvent
	capture := cfg
	capture.Observer = func(e SimEvent) { evs = append(evs, e) }
	res, err := Simulate(capture, jobs, NewDES(CDVFS))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewSamplingSpanTracer(SpanSampleConfig{Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01}})
		fr := NewFlightRecorder(FlightConfig{})
		armed, finish, err := applyOptions(cfg, []SimOption{WithSpans(tr), WithFlight(fr)})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range evs {
			armed.Observer(e)
		}
		for _, f := range finish {
			f(res)
		}
	}
	b.ReportMetric(float64(len(evs)), "events/run")
}
