package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"sync"
	"time"

	"dessched"
	"dessched/internal/sim"
)

// hist is a log-linear histogram of durations: histSub buckets per power
// of two of nanoseconds, so a quantile is exact to within 1/histSub of its
// octave while memory stays fixed however many calls are folded in.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
}

const histSub = 8

func histBucket(d time.Duration) int {
	ns := uint64(max(d, 1))
	e := bits.Len64(ns) - 1 // ns in [2^e, 2^(e+1))
	if e < 3 {
		return int(ns) // below 8 ns every value has its own bucket
	}
	sub := (ns >> (e - 3)) & (histSub - 1)
	return e*histSub + int(sub)
}

// histLower returns the smallest duration in bucket b, in nanoseconds.
func histLower(b int) float64 {
	if b < 3*histSub {
		return float64(b)
	}
	e, sub := b/histSub, b%histSub
	return math.Ldexp(float64(histSub+sub), e-3)
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, as the midpoint of the
// bucket holding it (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return (histLower(b) + histLower(b+1)) / 2
		}
	}
	return histLower(len(h.counts))
}

// histJSON is a histogram as written to the spans file: non-empty buckets
// as [lower bound ns, count] pairs plus the headline quantiles.
type histJSON struct {
	Count   uint64       `json:"count"`
	P50Ns   float64      `json:"p50_ns"`
	P90Ns   float64      `json:"p90_ns"`
	P99Ns   float64      `json:"p99_ns"`
	Buckets [][2]float64 `json:"buckets"`
}

func (h *hist) export() histJSON {
	out := histJSON{Count: h.n, P50Ns: h.quantile(0.5), P90Ns: h.quantile(0.9), P99Ns: h.quantile(0.99)}
	for b, c := range h.counts {
		if c > 0 {
			out.Buckets = append(out.Buckets, [2]float64{histLower(b), float64(c)})
		}
	}
	return out
}

// planAcc accumulates one policy instance's Plan calls. Each instance owns
// its accumulator, so concurrent cluster workers never share one.
type planAcc struct {
	calls    int
	queueSum int
	total    time.Duration
	h        hist
}

// timedPolicy wraps a scheduling policy and times every Plan call: the
// "core" layer (DES water-filling and Online-QE) as seen from outside.
type timedPolicy struct {
	inner sim.Policy
	acc   *planAcc
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Plan(now float64, s *sim.State) {
	p.acc.queueSum += len(s.Queue())
	t0 := time.Now()
	p.inner.Plan(now, s)
	d := time.Since(t0)
	p.acc.calls++
	p.acc.total += d
	p.acc.h.add(d)
}

// planProbe hands out wrapped policies, one accumulator per instance, and
// folds them once the run has returned.
type planProbe struct {
	mu   sync.Mutex
	accs []*planAcc
}

func (pp *planProbe) wrap(p dessched.Policy) dessched.Policy {
	acc := &planAcc{}
	pp.mu.Lock()
	pp.accs = append(pp.accs, acc)
	pp.mu.Unlock()
	return &timedPolicy{inner: p, acc: acc}
}

// fold sums every instance's accumulator into one.
func (pp *planProbe) fold() *planAcc {
	out := &planAcc{}
	for _, a := range pp.accs {
		out.calls += a.calls
		out.queueSum += a.queueSum
		out.total += a.total
		out.h.merge(&a.h)
	}
	return out
}

// timedSource wraps a lazy job source and times every Next call: the
// "workload" layer on the streamed path. The streamed coordinator calls
// Next once per dispatch epoch, so the gap between successive calls is one
// epoch of the whole fleet; each gap is recorded as an "epoch" span.
type timedSource struct {
	inner  dessched.JobSource
	tr     *tracer
	parent int

	calls    int
	total    time.Duration
	next     hist
	epochs   hist
	epochBeg time.Time
}

func (s *timedSource) Next(until float64) []dessched.Job {
	t0 := time.Now()
	if s.calls > 0 {
		s.closeEpoch(t0)
	}
	jobs := s.inner.Next(until)
	d := time.Since(t0)
	s.calls++
	s.total += d
	s.next.add(d)
	s.epochBeg = t0
	return jobs
}

func (s *timedSource) Done() bool { return s.inner.Done() }

// closeEpoch ends the epoch opened by the previous Next call at t.
func (s *timedSource) closeEpoch(t time.Time) {
	s.epochs.add(t.Sub(s.epochBeg))
	s.tr.span("epoch", s.parent, s.epochBeg, t, map[string]float64{"index": float64(s.calls - 1)})
}

// finish closes the last epoch when the run returns.
func (s *timedSource) finish(t time.Time) {
	if s.calls > 0 {
		s.closeEpoch(t)
	}
}

// spanRec is one recorded span: host-time offsets in seconds from the
// start of the traced invocation.
type spanRec struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 only on the invocation span
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps the benchmark's own spans in memory until the run ends.
// Only coarse spans (set-up, runs, epochs) are kept one by one; per-call
// layers (Plan, Next) fold into histograms.
type tracer struct {
	origin time.Time
	spans  []spanRec
}

// rootSpan is the id of the span covering the whole traced invocation;
// every other span descends from it.
const rootSpan = 1

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.reserve("invocation", 0)
	return t
}

// close ends the root span.
func (t *tracer) close(attrs map[string]float64) { t.set(rootSpan, t.origin, time.Now(), attrs) }

// span records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) span(name string, parent int, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
		Attrs: attrs,
	})
	return id
}

// reserve allocates a span id before the span's end is known, so children
// can name it as their parent; set fills it in.
func (t *tracer) reserve(name string, parent int) int {
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name})
	return len(t.spans)
}

func (t *tracer) set(id int, start, end time.Time, attrs map[string]float64) {
	s := &t.spans[id-1]
	s.Start, s.End, s.Attrs = start.Sub(t.origin).Seconds(), end.Sub(t.origin).Seconds(), attrs
}

// traceFile is the layout of the spans file a traced run writes.
type traceFile struct {
	Schema      string              `json:"schema"`
	Workload    string              `json:"workload"`
	Seed        uint64              `json:"seed"`
	Fingerprint string              `json:"fingerprint"`
	CPUProfile  string              `json:"cpu_profile"`
	Spans       []spanRec           `json:"spans"`
	Histograms  map[string]histJSON `json:"histograms"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
