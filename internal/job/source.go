package job

// Source is a pull-based job stream: the streaming cluster pipeline asks
// for one dispatch epoch of arrivals at a time instead of materializing the
// whole workload up front, so fleet size and job count are bounded by the
// arrival window, not by RAM (docs/SCALE.md).
//
// Contract:
//
//   - Next(until) returns every remaining job with Release < until, in
//     release order (ties in the generator's merge order). Successive calls
//     must use non-decreasing until values; the returned slice may reuse an
//     internal buffer and is only valid until the next call.
//   - Done reports whether the stream is exhausted: true means no future
//     Next call will ever return another job. Implementations must make
//     this exact (resolve generation lookahead eagerly), because the
//     simulation engines keep their periodic quantum alive while arrivals
//     are still expected — an optimistic Done would change event counts.
//   - Calls are serialized, never concurrent, but a cluster run makes them
//     on its coordinator goroutine rather than the caller's, while the
//     server engines work on the previous epoch. A run makes no call after
//     it returns.
type Source interface {
	Next(until float64) []Job
	Done() bool
}

// SliceSource adapts a materialized job slice to the Source interface, for
// trace replay, HTTP API streams, and tests. It sorts a copy by release
// (deadline, then ID tie-break) — the same canonical order cluster.Run
// imposes before dispatching.
type SliceSource struct {
	jobs []Job
	pos  int
}

// NewSliceSource returns a Source over a copy of jobs, sorted by release.
func NewSliceSource(jobs []Job) *SliceSource {
	s := &SliceSource{jobs: append([]Job(nil), jobs...)}
	SortByRelease(s.jobs)
	return s
}

// Next returns the jobs with Release < until not yet emitted.
func (s *SliceSource) Next(until float64) []Job {
	start := s.pos
	for s.pos < len(s.jobs) && s.jobs[s.pos].Release < until {
		s.pos++
	}
	return s.jobs[start:s.pos]
}

// Done reports whether every job has been emitted.
func (s *SliceSource) Done() bool { return s.pos >= len(s.jobs) }
