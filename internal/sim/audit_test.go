package sim_test

import (
	"testing"

	"dessched/internal/core"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// lazyPolicy binds each waiting job to the next available core and
// replans only the cores that received one, so other cores keep their
// plans across invocations and an evacuated core stays without one. With
// lag > 0 each plan opens with a sliver of its first job that ends lag/2
// before now — inside SetPlan's tolerance — so its boundary event pops at
// an earlier time than the invocation's.
type lazyPolicy struct {
	speed float64
	lag   float64
	next  int
}

func (p *lazyPolicy) Name() string { return "test-lazy" }

func (p *lazyPolicy) Plan(now float64, s *sim.State) {
	avail := s.AvailableCores()
	touched := make([]bool, len(s.Cores))
	for _, js := range s.DrainQueue() {
		for k := 0; k < len(avail) && !avail[p.next]; k++ {
			p.next = (p.next + 1) % len(s.Cores)
		}
		s.Bind(js, p.next)
		touched[p.next] = true
		p.next = (p.next + 1) % len(s.Cores)
	}
	for i, c := range s.Cores {
		if !touched[i] {
			continue
		}
		var segs []yds.Segment
		cur := now
		for _, r := range c.ReadyJobs(now) {
			if r.Deadline <= now || r.Remaining() <= 0 {
				continue
			}
			end := min(cur+r.Remaining()/power.Rate(p.speed), r.Deadline)
			if end <= cur {
				continue
			}
			if p.lag > 0 && len(segs) == 0 {
				segs = append(segs, yds.Segment{ID: r.ID, Start: now - p.lag, End: now - p.lag/2, Speed: p.speed})
			}
			segs = append(segs, yds.Segment{ID: r.ID, Start: cur, End: end, Speed: p.speed})
			cur = end
		}
		s.SetPlan(i, segs)
	}
}

// The memoized power audit sums, after every event, exactly the draw a
// direct per-core recomputation gives: under DES on all three
// architectures and under a policy that leaves plans in place, through
// core outages (with and without retry), budget faults, idle burn, and
// event times that step back.
func TestAuditMatchesDirectSum(t *testing.T) {
	faults := []sim.Fault{
		{Core: 1, Start: 0.6, End: 1.4, SpeedFactor: 0},
		{Core: 2, Start: 1.1, End: sim.Forever, SpeedFactor: 0},
		{Core: 0, Start: 0.9, End: 1.7, SpeedFactor: 0.5},
	}
	budget := []sim.BudgetFault{{Start: 0.7, End: 1.3, Fraction: 0.5}}
	type scenario struct {
		name   string
		arch   core.Arch
		lazy   bool
		lag    float64
		retry  bool
		faults bool
	}
	var scenarios []scenario
	for _, a := range []core.Arch{core.CDVFS, core.SDVFS, core.NoDVFS} {
		scenarios = append(scenarios,
			scenario{name: a.String(), arch: a},
			scenario{name: a.String() + "/faults", arch: a, faults: true, retry: true})
	}
	scenarios = append(scenarios,
		scenario{name: "lazy/faults", arch: core.CDVFS, lazy: true, faults: true},
		scenario{name: "lazy/faults/retry", arch: core.CDVFS, lazy: true, faults: true, retry: true},
		scenario{name: "lazy/backstep", arch: core.CDVFS, lazy: true, lag: 8e-10})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sim.PaperConfig()
			cfg.Cores, cfg.Budget = 4, 80
			core.ApplyArch(&cfg, sc.arch)
			if sc.faults {
				cfg.Faults, cfg.BudgetFaults = faults, budget
			}
			if sc.retry {
				cfg.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.05, MaxBackoff: 0.2}
			}
			wl := workload.DefaultConfig(50)
			wl.Duration, wl.Seed = 3, 16
			jobs, err := workload.Generate(wl)
			if err != nil {
				t.Fatal(err)
			}
			var p sim.Policy = core.New(sc.arch)
			if sc.lazy {
				p = &lazyPolicy{speed: 2, lag: sc.lag}
			}
			n, err := sim.RunAuditCheck(cfg, jobs, p)
			if err != nil {
				t.Fatal(err)
			}
			if n < len(jobs) {
				t.Fatalf("checked %d events for %d jobs", n, len(jobs))
			}
		})
	}
}
