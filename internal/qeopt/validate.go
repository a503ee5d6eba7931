package qeopt

import (
	"fmt"
	"math"

	"dessched/internal/job"
)

// Validate checks a plan against the invocation it came from: segments are
// ordered and non-overlapping from now onward, each job runs inside its
// window, receives no more than its remaining demand, and no segment's
// power exceeds the budget (with the ladder respected under discrete
// scaling). It is used by tests and available to embedders as a debugging
// aid.
func (p Plan) Validate(cfg Config, now float64, ready []job.Ready) error {
	const tol = 1e-6
	byID := make(map[job.ID]job.Ready, len(ready))
	for _, r := range ready {
		byID[r.ID] = r
	}
	discarded := make(map[job.ID]bool, len(p.Discarded))
	for _, id := range p.Discarded {
		discarded[id] = true
	}

	prevEnd := now
	volumes := make(map[job.ID]float64)
	for i, seg := range p.Segments {
		r, ok := byID[seg.ID]
		if !ok {
			return fmt.Errorf("qeopt: segment %d references unknown job %d", i, seg.ID)
		}
		if discarded[seg.ID] {
			return fmt.Errorf("qeopt: discarded job %d still has segments", seg.ID)
		}
		if seg.Start < prevEnd-tol {
			return fmt.Errorf("qeopt: segment %d overlaps its predecessor", i)
		}
		if seg.End < seg.Start {
			return fmt.Errorf("qeopt: segment %d inverted", i)
		}
		if seg.End > r.Deadline+tol {
			return fmt.Errorf("qeopt: job %d runs to %g past deadline %g", seg.ID, seg.End, r.Deadline)
		}
		if cfg.Power.DynamicPower(seg.Speed) > cfg.Budget*(1+1e-9)+tol {
			return fmt.Errorf("qeopt: job %d speed %g draws %g W over the %g W budget",
				seg.ID, seg.Speed, cfg.Power.DynamicPower(seg.Speed), cfg.Budget)
		}
		if cfg.MaxSpeed > 0 && seg.Speed > cfg.MaxSpeed+tol {
			return fmt.Errorf("qeopt: job %d speed %g exceeds hardware cap %g", seg.ID, seg.Speed, cfg.MaxSpeed)
		}
		if !cfg.Ladder.Continuous() {
			onLadder := false
			for _, l := range cfg.Ladder {
				if math.Abs(seg.Speed-l) < 1e-9 {
					onLadder = true
					break
				}
			}
			if !onLadder {
				return fmt.Errorf("qeopt: job %d speed %g is not a ladder level", seg.ID, seg.Speed)
			}
		}
		volumes[seg.ID] += seg.Volume()
		prevEnd = seg.End
	}
	for id, v := range volumes {
		if rem := byID[id].Remaining(); v > rem+tol*max(1, rem) {
			return fmt.Errorf("qeopt: job %d planned %g units but only %g remain", id, v, rem)
		}
	}
	return nil
}
