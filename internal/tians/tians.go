// Package tians implements Quality-OPT (the Tians scheduler of He, Elnikety
// and Sun, ICDCS'11, as used in §III of the paper): scheduling best-effort
// jobs on one core running at a fixed speed so as to maximize total quality
// when the quality function is identical, increasing and strictly concave
// for all jobs.
//
// The key concepts are the d-mean of an interval — the equal share of the
// interval's processing capacity left for its deprived jobs after all
// satisfiable jobs are served in full — and the busiest deprived interval,
// the interval minimizing that share. Quality-OPT serves the busiest
// deprived interval first (satisfied jobs fully, deprived jobs exactly the
// d-mean each, which is optimal for concave quality by convexity), excises
// the interval, and recurses.
//
// Two entry points mirror package yds: Offline handles arbitrary release
// times, and SameRelease is the O(n²) specialization used by Online-QE. The
// SameRelease form additionally supports per-job prior Progress: the water
// level is computed over total processed volumes, which generalizes the
// paper's release-time adjustment for the currently running job (see
// DESIGN.md, modeling assumption 5).
package tians

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/stats"
)

// Task is one best-effort job as seen by Quality-OPT.
type Task struct {
	ID       job.ID
	Release  float64
	Deadline float64
	Demand   float64 // full service demand, units
	Progress float64 // volume already processed before this invocation
}

// Allocation is the planned additional processing volume for one task.
type Allocation struct {
	ID     job.ID
	Volume float64 // additional units to process now (>= 0)
	Total  float64 // Progress + Volume
}

// SameRelease computes the quality-maximizing allocation when every task is
// available from time now on a core of the given fixed speed (GHz). Tasks
// must have Deadline > now (expired tasks receive zero allocation and are
// returned with Volume 0). The returned allocations are in deadline (EDF)
// order; scheduling them back-to-back in that order at the fixed speed is
// feasible.
func SameRelease(now, speed float64, tasks []Task) ([]Allocation, error) {
	return SameReleaseInto(nil, nil, now, speed, tasks)
}

// Scratch holds the reusable working buffers of SameReleaseInto. One Scratch
// may serve any number of sequential calls from a single goroutine; the zero
// value is ready to use.
type Scratch struct {
	ordered []Task
	expired []Allocation
	lo, hi  []float64
	breaks  []float64
}

// SameReleaseInto is SameRelease appending allocations into dst[:0] (which
// may be nil) and reusing scratch buffers (which may also be nil). Results
// are identical to SameRelease; the returned slice aliases dst's backing
// array when capacity suffices. Online-QE calls this once per core per
// scheduling event, so this form keeps the hot path allocation-free.
func SameReleaseInto(dst []Allocation, s *Scratch, now, speed float64, tasks []Task) ([]Allocation, error) {
	if speed < 0 {
		return nil, fmt.Errorf("tians: negative speed %g", speed)
	}
	rate := power.Rate(speed)

	var local Scratch
	if s == nil {
		s = &local
	}
	ordered := s.ordered[:0]
	expired := s.expired[:0]
	allocs := dst[:0]
	for _, t := range tasks {
		if t.Demand <= 0 {
			return nil, fmt.Errorf("tians: task %d has non-positive demand %g", t.ID, t.Demand)
		}
		if t.Progress < 0 {
			return nil, fmt.Errorf("tians: task %d has negative progress %g", t.ID, t.Progress)
		}
		if t.Deadline <= now || t.Progress >= t.Demand || rate == 0 {
			expired = append(expired, Allocation{ID: t.ID, Volume: 0, Total: min(t.Progress, t.Demand)})
			continue
		}
		ordered = append(ordered, t)
	}
	// Ready sets usually arrive in deadline order already; (deadline, ID)
	// is a total order over distinct IDs, so skipping the sort then leaves
	// the order the sort would produce.
	if !slices.IsSortedFunc(ordered, byDeadline) {
		slices.SortFunc(ordered, byDeadline)
	}
	s.ordered, s.expired = ordered, expired

	cur := now
	remaining := ordered
	for len(remaining) > 0 {
		// Find the busiest deprived prefix: the prefix [cur, d_k] (ending
		// at a distinct deadline) whose water level over total volumes is
		// smallest. A prefix with level +Inf can satisfy all its jobs.
		bestK := -1
		bestLevel := math.Inf(1)
		lo := s.lo[:0]
		hi := s.hi[:0]
		for k := 0; k < len(remaining); k++ {
			lo = append(lo, remaining[k].Progress)
			hi = append(hi, remaining[k].Demand)
			if k+1 < len(remaining) && remaining[k+1].Deadline == remaining[k].Deadline {
				continue
			}
			capacity := (remaining[k].Deadline - cur) * rate
			level, saturated := stats.WaterLevelScratch(capacity, lo, hi, &s.breaks)
			if saturated {
				continue
			}
			if level < bestLevel-1e-12 {
				bestK, bestLevel = k, level
			}
		}
		s.lo, s.hi = lo, hi
		if bestK < 0 {
			// Every prefix is satisfiable: allocate everything and stop.
			for _, t := range remaining {
				allocs = append(allocs, Allocation{ID: t.ID, Volume: t.Demand - t.Progress, Total: t.Demand})
			}
			break
		}
		// Allocate the busiest deprived group: totals rise to the water
		// level, capped by demand, never below prior progress.
		for i := 0; i <= bestK; i++ {
			t := remaining[i]
			total := min(t.Demand, max(bestLevel, t.Progress))
			allocs = append(allocs, Allocation{ID: t.ID, Volume: total - t.Progress, Total: total})
		}
		cur = remaining[bestK].Deadline
		remaining = remaining[bestK+1:]
	}
	return append(allocs, expired...), nil
}

// byDeadline orders tasks by deadline, then ID.
func byDeadline(a, b Task) int {
	if c := cmp.Compare(a.Deadline, b.Deadline); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TotalQuality evaluates the quality of a set of allocations under a
// quality function applied to each task's total processed volume.
func TotalQuality(allocs []Allocation, eval func(x float64) float64) float64 {
	q := 0.0
	for _, a := range allocs {
		q += eval(a.Total)
	}
	return q
}

// FeasibleSameRelease verifies that allocations (in the given order) can run
// back-to-back from now at the fixed speed meeting each task's deadline.
// Allocations must be in deadline order for the check to be meaningful.
func FeasibleSameRelease(now, speed float64, tasks []Task, allocs []Allocation) error {
	rate := power.Rate(speed)
	byID := make(map[job.ID]Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	cur := now
	const tol = 1e-6
	for _, a := range allocs {
		if a.Volume < -tol {
			return fmt.Errorf("tians: negative allocation for task %d", a.ID)
		}
		t, ok := byID[a.ID]
		if !ok {
			return fmt.Errorf("tians: allocation for unknown task %d", a.ID)
		}
		if a.Total > t.Demand+tol {
			return fmt.Errorf("tians: task %d allocated total %g beyond demand %g", a.ID, a.Total, t.Demand)
		}
		if a.Volume <= 0 {
			continue
		}
		if rate == 0 {
			return fmt.Errorf("tians: positive allocation with zero speed")
		}
		cur += a.Volume / rate
		if cur > t.Deadline+tol {
			return fmt.Errorf("tians: task %d completes at %g past deadline %g", a.ID, cur, t.Deadline)
		}
	}
	return nil
}
