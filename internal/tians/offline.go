package tians

import (
	"fmt"
	"math"
	"sort"

	"dessched/internal/power"
	"dessched/internal/stats"
	"dessched/internal/timeline"
)

// Offline computes the quality-maximizing allocation for tasks with
// arbitrary release times and agreeable deadlines on a core of the given
// fixed speed (GHz). It repeatedly finds the busiest deprived interval
// (minimum d-mean / water level), serves it, excises it, and recurses; when
// no interval is deprived the remaining tasks are all satisfiable and are
// served in full. Prior Progress acts as a floor on each task's total
// volume (zero in the paper's offline setting).
func Offline(speed float64, tasks []Task) ([]Allocation, error) {
	if speed < 0 {
		return nil, fmt.Errorf("tians: negative speed %g", speed)
	}
	rate := power.Rate(speed)

	pending := make([]Task, 0, len(tasks))
	var done []Allocation
	for _, t := range tasks {
		if t.Demand <= 0 {
			return nil, fmt.Errorf("tians: task %d has non-positive demand %g", t.ID, t.Demand)
		}
		if t.Progress < 0 {
			return nil, fmt.Errorf("tians: task %d has negative progress %g", t.ID, t.Progress)
		}
		if t.Deadline <= t.Release {
			return nil, fmt.Errorf("tians: task %d has empty window [%g, %g]", t.ID, t.Release, t.Deadline)
		}
		if t.Progress >= t.Demand || rate == 0 {
			done = append(done, Allocation{ID: t.ID, Volume: 0, Total: min(t.Progress, t.Demand)})
			continue
		}
		pending = append(pending, t)
	}

	var tl timeline.Timeline
	const tol = 1e-9
	for len(pending) > 0 {
		vr := make([]float64, len(pending))
		vd := make([]float64, len(pending))
		for i, t := range pending {
			vr[i] = tl.Virtual(t.Release)
			vd[i] = tl.Virtual(t.Deadline)
		}

		// Busiest deprived interval: minimize the water level over all
		// (release, deadline) endpoint pairs that contain a deprived task.
		bestLevel := math.Inf(1)
		bestZ, bestZp := 0.0, 0.0
		var bestGroup []int
		for i := range pending {
			for k := range pending {
				z, zp := vr[i], vd[k]
				if zp-z <= tol {
					continue
				}
				var group []int
				var lo, hi []float64
				for x := range pending {
					if vr[x] >= z-tol && vd[x] <= zp+tol {
						group = append(group, x)
						lo = append(lo, pending[x].Progress)
						hi = append(hi, pending[x].Demand)
					}
				}
				if len(group) == 0 {
					continue
				}
				capacity := (zp - z) * rate
				level, saturated := stats.WaterLevel(capacity, lo, hi)
				if saturated {
					continue
				}
				better := level < bestLevel-1e-12
				if !better && level < bestLevel+1e-12 && bestGroup != nil {
					if zp-z < (bestZp-bestZ)-1e-12 {
						better = true
					}
				}
				if better {
					bestLevel, bestZ, bestZp, bestGroup = level, z, zp, group
				}
			}
		}

		if bestGroup == nil {
			// No deprived interval: everything remaining is satisfiable.
			for _, t := range pending {
				done = append(done, Allocation{ID: t.ID, Volume: t.Demand - t.Progress, Total: t.Demand})
			}
			break
		}

		inGroup := make(map[int]bool, len(bestGroup))
		for _, idx := range bestGroup {
			t := pending[idx]
			total := min(t.Demand, max(bestLevel, t.Progress))
			done = append(done, Allocation{ID: t.ID, Volume: total - t.Progress, Total: total})
			inGroup[idx] = true
		}
		tl.Excise(tl.FreeIntervals(bestZ, bestZp))

		next := pending[:0]
		for i := range pending {
			if !inGroup[i] {
				next = append(next, pending[i])
			}
		}
		pending = next
	}

	sort.Slice(done, func(a, b int) bool { return done[a].ID < done[b].ID })
	return done, nil
}

// FeasibleOffline verifies by preemptive-EDF simulation at the fixed speed
// that every allocation's additional volume fits inside its task's window.
func FeasibleOffline(speed float64, tasks []Task, allocs []Allocation) error {
	rate := power.Rate(speed)
	const tol = 1e-6

	type item struct {
		t   Task
		rem float64
	}
	byID := make(map[int64]*item, len(tasks))
	items := make([]*item, 0, len(tasks))
	for _, t := range tasks {
		it := &item{t: t}
		byID[int64(t.ID)] = it
		items = append(items, it)
	}
	for _, a := range allocs {
		it, ok := byID[int64(a.ID)]
		if !ok {
			return fmt.Errorf("tians: allocation for unknown task %d", a.ID)
		}
		if a.Volume < -tol {
			return fmt.Errorf("tians: negative allocation for task %d", a.ID)
		}
		if a.Total > it.t.Demand+tol {
			return fmt.Errorf("tians: task %d total %g exceeds demand %g", a.ID, a.Total, it.t.Demand)
		}
		it.rem = max(0, a.Volume)
	}
	if rate == 0 {
		for _, it := range items {
			if it.rem > tol {
				return fmt.Errorf("tians: positive allocation with zero speed")
			}
		}
		return nil
	}

	// Preemptive EDF over event times.
	sort.Slice(items, func(a, b int) bool { return items[a].t.Release < items[b].t.Release })
	var eventTimes []float64
	for _, it := range items {
		eventTimes = append(eventTimes, it.t.Release, it.t.Deadline)
	}
	sort.Float64s(eventTimes)
	now := math.Inf(-1)
	if len(eventTimes) > 0 {
		now = eventTimes[0]
	}
	for _, next := range eventTimes {
		for next > now+1e-12 {
			// Earliest-deadline released task with remaining work.
			var run *item
			for _, it := range items {
				if it.rem > tol && it.t.Release <= now+1e-12 && it.t.Deadline > now+1e-12 {
					if run == nil || it.t.Deadline < run.t.Deadline {
						run = it
					}
				}
			}
			if run == nil {
				now = next
				break
			}
			span := min(next, run.t.Deadline) - now
			doable := span * rate
			if doable >= run.rem {
				now += run.rem / rate
				run.rem = 0
			} else {
				run.rem -= doable
				now += span
			}
		}
		now = max(now, next)
	}
	for _, it := range items {
		if it.rem > tol {
			return fmt.Errorf("tians: task %d has %g units unscheduled at its deadline", it.t.ID, it.rem)
		}
	}
	return nil
}
