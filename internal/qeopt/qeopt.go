// Package qeopt composes Quality-OPT and Energy-OPT into the paper's
// single-core schedulers for the lexicographic ⟨quality, energy⟩ metric
// (§III):
//
//   - QE-OPT (Offline): run Quality-OPT at the maximum speed the power
//     budget allows to fix each job's processing volume (maximum quality),
//     then run Energy-OPT over those volumes to pick the slowest feasible
//     speeds (minimum energy). Theorem 1 guarantees the Energy-OPT speeds
//     never exceed the budget speed, so the composition is feasible;
//     Theorem 2 shows it is optimal.
//
//   - Online-QE (Online): the myopic O(n²) version invoked at scheduling
//     events. All ready jobs are treated as released "now"; a job's prior
//     progress enters Quality-OPT as a floor on its total volume, which
//     generalizes the paper's release-time adjustment for the currently
//     running job (DESIGN.md, assumption 5). The power budget may differ
//     at every invocation, which is what lets DES redistribute power across
//     cores dynamically.
//
// Both entry points also handle jobs without partial-evaluation support
// (§V-D): a non-partial job that the plan cannot run to completion is
// discarded and the schedule recomputed, one job at a time.
package qeopt

import (
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/tians"
	"dessched/internal/yds"
)

// Config carries the per-core scheduling environment for one invocation.
type Config struct {
	Power    power.Model  // core power model
	Budget   float64      // dynamic power budget for this core, W
	Ladder   power.Ladder // discrete speed ladder; empty means continuous DVFS
	MaxSpeed float64      // hardware speed cap in GHz; 0 means unbounded

	// TwoSpeed selects the optimal discretization of Li, Yao & Yao (the
	// paper's ref. [21]) instead of §V-F's snap-up rectification: each
	// continuous segment executes at the two adjacent ladder speeds,
	// time-split to deliver exactly the planned volume in exactly the
	// planned window. By convexity this never costs more energy than
	// rounding up, and it preserves the Energy-OPT timing. Ignored for
	// continuous ladders.
	TwoSpeed bool
}

// SpeedCap returns the fastest speed the core may use: the budget speed,
// clamped by the hardware cap and, under discrete scaling, rounded down to
// the ladder.
func (c Config) SpeedCap() float64 {
	s := c.Power.SpeedFor(c.Budget)
	if c.MaxSpeed > 0 && s > c.MaxSpeed {
		s = c.MaxSpeed
	}
	if !c.Ladder.Continuous() {
		down, ok := c.Ladder.RoundDown(s)
		if !ok {
			return 0
		}
		s = down
	}
	return s
}

// Plan is one core's executable schedule from an invocation instant onward.
type Plan struct {
	Segments  []yds.Segment      // ordered execution segments
	Allocs    []tians.Allocation // planned additional volume per job
	Discarded []job.ID           // non-partial jobs dropped as uncompletable
}

// RequiredPower returns the dynamic power the plan draws at its start.
// For continuous plans the speed profile is non-increasing, so this is also
// the plan's peak power.
func (p Plan) RequiredPower(m power.Model) float64 {
	if len(p.Segments) == 0 {
		return 0
	}
	return m.DynamicPower(p.Segments[0].Speed)
}

// Energy returns the dynamic energy of the whole plan.
func (p Plan) Energy(m power.Model) float64 {
	return yds.Schedule{Segments: p.Segments}.Energy(m)
}

// Online computes the myopic optimal plan for the ready jobs at time now
// under the configuration. Expired or completed jobs receive no segments.
// Jobs appear in the plan in EDF order; the schedule is non-preemptive.
//
// Online allocates fresh result slices on every call; hot paths should hold
// a Planner per core and call its Online method, which runs the identical
// code through reusable buffers.
func Online(cfg Config, now float64, ready []job.Ready) (Plan, error) {
	var p Planner
	return p.Online(Plan{}, cfg, now, ready)
}

// Offline computes the QE-OPT schedule for a full job set with arbitrary
// release times and agreeable deadlines under a fixed budget. Partial flags
// are supplied per job ID; missing entries default to partial-capable.
// Offline is the continuous-DVFS optimality setting of §III-A: a discrete
// Ladder only caps the planning speed (via SpeedCap); per-segment ladder
// rectification is an online concern and is not applied here.
func Offline(cfg Config, tasks []tians.Task, partial map[job.ID]bool) (Plan, error) {
	sStar := cfg.SpeedCap()
	if sStar <= 0 || len(tasks) == 0 {
		return Plan{}, nil
	}
	work := append([]tians.Task(nil), tasks...)

	var discarded []job.ID
	var allocs []tians.Allocation
	for {
		var err error
		allocs, err = tians.Offline(sStar, work)
		if err != nil {
			return Plan{}, err
		}
		drop, ok := worstNonPartialShortfall(work, allocs, partial)
		if !ok {
			break
		}
		discarded = append(discarded, drop)
		work = removeTask(work, drop)
	}

	// Energy step on the original windows with demands replaced by the
	// Quality-OPT volumes (§III-A step 2).
	byID := make(map[job.ID]tians.Task, len(work))
	for _, t := range work {
		byID[t.ID] = t
	}
	ydsTasks := make([]yds.Task, 0, len(allocs))
	for _, a := range allocs {
		if a.Volume <= 0 {
			continue
		}
		t := byID[a.ID]
		ydsTasks = append(ydsTasks, yds.Task{ID: a.ID, Release: t.Release, Deadline: t.Deadline, Volume: a.Volume})
	}
	sched, err := yds.Offline(ydsTasks)
	if err != nil {
		return Plan{}, err
	}
	if err := checkTheorem1(sched.Segments, allocs, sStar); err != nil {
		return Plan{}, err
	}
	return Plan{Segments: clampSpeeds(sched.Segments, sStar), Allocs: allocs, Discarded: discarded}, nil
}

// worstNonPartialShortfall returns the non-partial job with the largest gap
// between demand and allocated total, or ok=false when every non-partial
// job is fully served.
func worstNonPartialShortfall(tasks []tians.Task, allocs []tians.Allocation, partial map[job.ID]bool) (job.ID, bool) {
	demand := make(map[job.ID]float64, len(tasks))
	for _, t := range tasks {
		demand[t.ID] = t.Demand
	}
	const tol = 1e-6
	worst, worstGap := job.ID(0), 0.0
	found := false
	for _, a := range allocs {
		if partial[a.ID] {
			continue
		}
		if gap := demand[a.ID] - a.Total; gap > tol && gap > worstGap {
			worst, worstGap, found = a.ID, gap, true
		}
	}
	return worst, found
}

func removeTask(tasks []tians.Task, id job.ID) []tians.Task {
	out := tasks[:0]
	for _, t := range tasks {
		if t.ID != id {
			out = append(out, t)
		}
	}
	return out
}

// clampSpeeds caps floating-point overshoot of the budget speed.
func clampSpeeds(segs []yds.Segment, sStar float64) []yds.Segment {
	out := append([]yds.Segment(nil), segs...)
	clampSpeedsInPlace(out, sStar)
	return out
}
