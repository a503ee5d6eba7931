package qeopt

import (
	"fmt"
	"math"

	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/tians"
	"dessched/internal/yds"
)

// Planner is the allocation-free form of the online schedulers. It owns the
// scratch buffers the planning pipeline (Quality-OPT → Energy-OPT → ladder
// rectification) needs, plus memoized speed⇄power conversions, so one
// Planner per core turns Online-QE into a zero-steady-state-allocation call.
//
// A Planner is not safe for concurrent use. The zero value is ready. The
// package-level Online and OnlineFixedSpeed run the exact same code through
// a throwaway Planner, so both forms are bit-identical by construction.
type Planner struct {
	// Memoized per-environment conversions. The environment (model, ladder,
	// hardware cap) is fixed for a core across a run; only Budget varies,
	// and even that is often stable between consecutive invocations.
	envValid    bool
	envModel    power.Model
	envLadder   power.Ladder
	envMaxSpeed float64
	table       power.Table
	capValid    bool
	capBudget   float64
	capSpeed    float64 // Config.SpeedCap result for capBudget
	rawCap      float64 // SpeedFor(Budget) clamped by MaxSpeed, pre-ladder

	// Scratch consumed within a single call.
	tasks    []tians.Task
	meta     []taskMeta
	ydsTasks []yds.Task
	contSegs []yds.Segment // continuous segments before discrete rectification
	tiansS   tians.Scratch
	ydsS     yds.Scratch
}

// taskMeta carries the per-job facts the discard loop and the rectifier need
// after tasks have been filtered, replacing the byID/partial/demand maps of
// the original implementation. Ready sets are small, so linear lookup wins.
type taskMeta struct {
	id       job.ID
	partial  bool
	demand   float64
	deadline float64
}

func (p *Planner) lookup(id job.ID) *taskMeta {
	for i := range p.meta {
		if p.meta[i].id == id {
			return &p.meta[i]
		}
	}
	return nil
}

func ladderIdentical(a, b power.Ladder) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

func (p *Planner) ensureEnv(cfg Config) {
	if p.envValid && p.envModel == cfg.Power && p.envMaxSpeed == cfg.MaxSpeed &&
		ladderIdentical(p.envLadder, cfg.Ladder) {
		return
	}
	p.envValid = true
	p.envModel, p.envLadder, p.envMaxSpeed = cfg.Power, cfg.Ladder, cfg.MaxSpeed
	p.table = power.NewTable(cfg.Power, cfg.Ladder)
	p.capValid = false
}

// speedCap memoizes Config.SpeedCap (and the pre-ladder cap the rectifiers
// use) for the last seen budget. The cached values are the outputs of the
// exact same Model/Ladder calls, so memoization cannot change a bit.
func (p *Planner) speedCap(cfg Config) float64 {
	if p.capValid && p.capBudget == cfg.Budget {
		return p.capSpeed
	}
	raw := cfg.Power.SpeedFor(cfg.Budget)
	if cfg.MaxSpeed > 0 && raw > cfg.MaxSpeed {
		raw = cfg.MaxSpeed
	}
	s := raw
	if !cfg.Ladder.Continuous() {
		down, ok := cfg.Ladder.RoundDown(s)
		if !ok {
			down = 0
		}
		s = down
	}
	p.capBudget, p.capSpeed, p.rawCap, p.capValid = cfg.Budget, s, raw, true
	return s
}

// Online is qeopt.Online building its result into dst's backing arrays
// (each may be nil) and reusing the Planner's scratch. The returned Plan
// aliases dst; it is valid until the next call that reuses those buffers.
func (p *Planner) Online(dst Plan, cfg Config, now float64, ready []job.Ready) (Plan, error) {
	p.ensureEnv(cfg)
	out := Plan{Segments: dst.Segments[:0], Allocs: dst.Allocs[:0], Discarded: dst.Discarded[:0]}
	sStar := p.speedCap(cfg)
	if sStar <= 0 || len(ready) == 0 {
		return out, nil
	}

	tasks := p.gatherTasks(now, ready)
	allocs, discarded, err := p.discardLoop(out.Allocs, out.Discarded, tasks, now, sStar)
	if err != nil {
		return Plan{}, err
	}
	out.Allocs, out.Discarded = allocs, discarded
	return p.buildPlan(out, cfg, now, sStar)
}

// FixedSpeed is qeopt.OnlineFixedSpeed building into dst, for the No-DVFS
// and S-DVFS per-core planning path.
func (p *Planner) FixedSpeed(dst Plan, now float64, ready []job.Ready, speed float64) (Plan, error) {
	out := Plan{Segments: dst.Segments[:0], Allocs: dst.Allocs[:0], Discarded: dst.Discarded[:0]}
	if speed <= 0 || len(ready) == 0 {
		return out, nil
	}

	tasks := p.gatherTasks(now, ready)
	allocs, discarded, err := p.discardLoop(out.Allocs, out.Discarded, tasks, now, speed)
	if err != nil {
		return Plan{}, err
	}
	out.Allocs, out.Discarded = allocs, discarded

	// Back-to-back EDF segments at the fixed speed. SameRelease returns
	// allocations in deadline order and guarantees feasibility, so each
	// segment ends by its job's deadline.
	rate := power.Rate(speed)
	cur := now
	for _, a := range allocs {
		if a.Volume <= 0 {
			continue
		}
		end := cur + a.Volume/rate
		out.Segments = append(out.Segments, yds.Segment{ID: a.ID, Start: cur, End: end, Speed: speed})
		cur = end
	}
	return out, nil
}

// gatherTasks filters the ready set into Quality-OPT tasks, recording the
// lookup metadata the later stages need.
func (p *Planner) gatherTasks(now float64, ready []job.Ready) []tians.Task {
	tasks := p.tasks[:0]
	meta := p.meta[:0]
	for _, r := range ready {
		if r.Deadline <= now || r.Remaining() <= 0 {
			continue
		}
		tasks = append(tasks, tians.Task{
			ID:       r.ID,
			Release:  now,
			Deadline: r.Deadline,
			Demand:   r.Demand,
			Progress: r.Done,
		})
		meta = append(meta, taskMeta{id: r.ID, partial: r.Partial, demand: r.Demand, deadline: r.Deadline})
	}
	p.tasks, p.meta = tasks, meta
	return tasks
}

// discardLoop runs Quality-OPT, dropping the worst-served non-partial job
// and re-solving until every surviving non-partial job is fully served
// (§V-D), exactly as the original Online/OnlineFixedSpeed loop.
func (p *Planner) discardLoop(allocs []tians.Allocation, discarded []job.ID, tasks []tians.Task, now, speed float64) ([]tians.Allocation, []job.ID, error) {
	for {
		var err error
		allocs, err = tians.SameReleaseInto(allocs[:0], &p.tiansS, now, speed, tasks)
		if err != nil {
			return nil, nil, err
		}
		drop, ok := p.worstShortfall(allocs)
		if !ok {
			p.tasks = tasks
			return allocs, discarded, nil
		}
		discarded = append(discarded, drop)
		tasks = removeTask(tasks, drop)
	}
}

// worstShortfall is worstNonPartialShortfall over the Planner's metadata
// instead of freshly built maps; iteration order (the allocation slice) and
// comparisons are unchanged, so the selected job is identical.
func (p *Planner) worstShortfall(allocs []tians.Allocation) (job.ID, bool) {
	const tol = 1e-6
	worst, worstGap := job.ID(0), 0.0
	found := false
	for _, a := range allocs {
		m := p.lookup(a.ID)
		if m == nil || m.partial {
			continue
		}
		if gap := m.demand - a.Total; gap > tol && gap > worstGap {
			worst, worstGap, found = a.ID, gap, true
		}
	}
	return worst, found
}

// buildPlan runs the energy step for the online (same-release) case and,
// under discrete scaling, rectifies segment speeds to ladder levels. It is
// the scratch-buffer form of the original buildPlan, producing bit-identical
// segments.
func (p *Planner) buildPlan(out Plan, cfg Config, now, sStar float64) (Plan, error) {
	ydsTasks := p.ydsTasks[:0]
	for _, a := range out.Allocs {
		if a.Volume <= 0 {
			continue
		}
		m := p.lookup(a.ID)
		ydsTasks = append(ydsTasks, yds.Task{ID: a.ID, Release: now, Deadline: m.deadline, Volume: a.Volume})
	}
	p.ydsTasks = ydsTasks

	discrete := !cfg.Ladder.Continuous()
	// Continuous plans are final after clamping, so build straight into the
	// destination; discrete plans rectify from a scratch intermediate.
	segDst := out.Segments[:0]
	if discrete {
		segDst = p.contSegs[:0]
	}
	segs, err := yds.SameReleaseInto(segDst, now, ydsTasks, &p.ydsS)
	if err != nil {
		return Plan{}, err
	}
	if err := checkTheorem1(segs, out.Allocs, sStar); err != nil {
		return Plan{}, err
	}
	clampSpeedsInPlace(segs, sStar)
	if !discrete {
		out.Segments = segs
		return out, nil
	}
	p.contSegs = segs
	if cfg.TwoSpeed {
		out.Segments = p.rectifyTwoSpeed(out.Segments[:0], cfg, segs)
	} else {
		out.Segments = p.rectifyDiscrete(out.Segments[:0], cfg, now, segs)
	}
	return out, nil
}

// rectifyTwoSpeed replaces each continuous segment by at most two chunks at
// the adjacent ladder speeds, delivering the same volume over the same
// window ([21]). Speeds never exceed the highest ladder level the budget
// affords; since planning capped speeds at that level, the split always
// fits.
func (p *Planner) rectifyTwoSpeed(out []yds.Segment, cfg Config, segs []yds.Segment) []yds.Segment {
	capSpeed := p.rawCap
	for _, seg := range segs {
		dur := seg.End - seg.Start
		vol := seg.Volume()
		if dur <= 0 || vol <= 0 {
			continue
		}
		s := seg.Speed
		hi, okHi := cfg.Ladder.RoundUp(s)
		if !okHi || p.table.DynamicPower(hi) > cfg.Budget+1e-12 || hi > capSpeed+1e-12 {
			// The level above is unaffordable; the planning cap is itself a
			// ladder level, so it becomes the high speed.
			var ok bool
			hi, ok = cfg.Ladder.RoundDown(capSpeed + 1e-12)
			if !ok {
				continue // no affordable level at all: the core stays idle
			}
		}
		lo, okLo := cfg.Ladder.RoundDown(s)
		if okLo && math.Abs(lo-s) < 1e-12 {
			// Already on the ladder (within float drift): snap exactly.
			seg.Speed = lo
			out = append(out, seg)
			continue
		}
		if math.Abs(hi-s) < 1e-12 {
			seg.Speed = hi
			out = append(out, seg)
			continue
		}
		if !okLo {
			lo = 0 // below the bottom level: idle fills the remainder
		}
		rateHi, rateLo := power.Rate(hi), power.Rate(lo)
		var tHi float64
		if rateHi > rateLo {
			tHi = (vol - rateLo*dur) / (rateHi - rateLo)
		} else {
			tHi = dur
		}
		tHi = max(0, min(tHi, dur))
		cur := seg.Start
		if tHi > 1e-12 {
			out = append(out, yds.Segment{ID: seg.ID, Start: cur, End: cur + tHi, Speed: hi})
			cur += tHi
		}
		if lo > 0 && seg.End-cur > 1e-12 {
			out = append(out, yds.Segment{ID: seg.ID, Start: cur, End: seg.End, Speed: lo})
		}
	}
	return out
}

// rectifyDiscrete rebuilds the segment list under discrete speed scaling
// (§V-F): each segment's speed is rounded up to the nearest ladder level the
// core's budget supports, else down; segments run back-to-back from now and
// are truncated at their job's deadline when rounding down loses capacity.
func (p *Planner) rectifyDiscrete(out []yds.Segment, cfg Config, now float64, segs []yds.Segment) []yds.Segment {
	cur := now
	for _, seg := range segs {
		vol := seg.Volume()
		speed := snapSpeedCapped(cfg.Ladder, p.rawCap, seg.Speed)
		if speed <= 0 || vol <= 0 {
			continue
		}
		deadline := p.lookup(seg.ID).deadline
		if cur >= deadline {
			continue
		}
		dur := vol / power.Rate(speed)
		end := cur + dur
		if end > deadline {
			end = deadline
		}
		if end-cur <= 1e-12 {
			continue
		}
		out = append(out, yds.Segment{ID: seg.ID, Start: cur, End: end, Speed: speed})
		cur = end
	}
	return out
}

// snapSpeedCapped applies the paper's rectification rule with the budget
// speed cap hoisted out of the per-segment loop: the smallest ladder speed
// not below s if the budget can power it, otherwise the next lower ladder
// speed (0 when even the lowest level is unaffordable or s is 0).
func snapSpeedCapped(l power.Ladder, cap, s float64) float64 {
	if s <= 0 {
		return 0
	}
	if up, ok := l.RoundUp(s); ok && up <= cap+1e-12 {
		return up
	}
	if down, ok := l.RoundDown(min(s, cap)); ok {
		return down
	}
	return 0
}

// checkTheorem1 verifies that no Energy-OPT segment runs faster than the
// budget speed sStar (Theorem 1), up to the roundoff the allocation carries.
//
// An allocation's Volume is Total − Progress, where Total is a water level
// accurate to a few ulp of Total, not of Volume. A job that is nearly done
// has a Volume many orders of magnitude below Total, and YDS divides it by
// what is left of its window, which can be nanoseconds. So the speed of a
// segment of duration τ may exceed sStar by up to ΣδV / (Rate(1)·τ), with
// δV = 4·ulp(Total) per allocation, on top of the relative 1e-9 the
// division itself may cost. A real violation of Theorem 1 is off by far
// more than either.
func checkTheorem1(segs []yds.Segment, allocs []tians.Allocation, sStar float64) error {
	volErr := -1.0 // summed when a segment first exceeds the limit
	limit := sStar*(1+1e-9) + 1e-12
	for _, seg := range segs {
		if seg.Speed <= limit {
			continue
		}
		if volErr < 0 {
			volErr = 0
			for _, a := range allocs {
				if a.Volume > 0 {
					volErr += 4 * (math.Nextafter(a.Total, math.Inf(1)) - a.Total)
				}
			}
		}
		if dur := seg.End - seg.Start; dur > 0 && seg.Speed <= limit+volErr/(power.Rate(1)*dur) {
			continue
		}
		return fmt.Errorf("qeopt: Energy-OPT speed %g exceeds budget speed %g (Theorem 1 violated)", seg.Speed, sStar)
	}
	return nil
}

// clampSpeedsInPlace is clampSpeeds without the defensive copy; callers own
// the slice.
func clampSpeedsInPlace(segs []yds.Segment, sStar float64) {
	for i := range segs {
		if segs[i].Speed > sStar {
			// Keep the volume intact: stretch the segment instead. The
			// overshoot is at most a relative 1e-9, so the stretch is
			// negligible; downstream deadline checks use tolerances.
			vol := segs[i].Volume()
			segs[i].Speed = sStar
			segs[i].End = segs[i].Start + vol/power.Rate(sStar)
		}
	}
}
