package sim

import (
	"fmt"
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

// RunAuditCheck drives a batch run like Run and, after every event the
// audit samples, compares the audit's draw with a direct sum over the
// cores of the power at the speed each plan gives at that instant — the
// audit as it was before its terms were memoized. It returns the number of
// events checked and an error at the first draw whose bits differ.
func RunAuditCheck(cfg Config, jobs []job.Job, p Policy) (checked int, err error) {
	e, err := startRun(cfg, jobs, p)
	if err != nil {
		return 0, err
	}
	for {
		it, ok := e.nextEvent(math.Inf(1))
		if !ok {
			return checked, nil
		}
		stop, err := e.processEvent(it)
		if err != nil {
			return checked, err
		}
		if it.Payload.kind != evkCheckpoint {
			want := 0.0
			for _, c := range e.cores {
				if s := c.SpeedAt(it.Time); s == 0 {
					want += e.idlePower
				} else {
					want += e.cfg.Power.DynamicPower(s)
				}
			}
			// The audit was the event's last step, so the memo answers
			// this draw exactly as it answered the audit's.
			if got := e.draw(it.Time); math.Float64bits(want) != math.Float64bits(got) {
				return checked, fmt.Errorf("event %d at t=%g: audit draw %v, direct sum %v", checked, it.Time, got, want)
			}
			checked++
		}
		if stop {
			return checked, nil
		}
	}
}
