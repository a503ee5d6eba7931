package sim

import (
	"math"

	"dessched/internal/job"
)

// RunMaxHeap drives a batch run like Run and reports the largest number of
// events the heap held after any event was handled.
func RunMaxHeap(cfg Config, jobs []job.Job, p Policy) (maxHeap int, err error) {
	e, err := startRun(cfg, jobs, p)
	if err != nil {
		return 0, err
	}
	for {
		maxHeap = max(maxHeap, e.events.Len())
		it, ok := e.nextEvent(math.Inf(1))
		if !ok {
			return maxHeap, nil
		}
		stop, err := e.processEvent(it)
		if err != nil || stop {
			return maxHeap, err
		}
	}
}
