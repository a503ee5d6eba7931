package qeopt

import (
	"math"
	"math/rand"
	"testing"

	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/tians"
	"dessched/internal/yds"
)

func plannerConfigs() map[string]Config {
	return map[string]Config{
		"continuous": {Power: power.Default, Budget: 25, MaxSpeed: 3},
		"discrete":   {Power: power.Default, Budget: 25, Ladder: power.DefaultLadder, MaxSpeed: 3},
		"two-speed":  {Power: power.Default, Budget: 25, Ladder: power.DefaultLadder, MaxSpeed: 3, TwoSpeed: true},
		"opteron":    {Power: power.Opteron, Budget: 60, Ladder: power.OpteronLadder, MaxSpeed: 2.6},
	}
}

func randomReady(rng *rand.Rand, now float64, n int) []job.Ready {
	ready := make([]job.Ready, 0, n)
	for i := 0; i < n; i++ {
		demand := 50 + rng.Float64()*400
		ready = append(ready, job.Ready{
			Job: job.Job{
				ID:       job.ID(i + 1),
				Release:  now,
				Deadline: now + 0.05 + rng.Float64()*0.4,
				Demand:   demand,
				Partial:  rng.Intn(3) != 0,
			},
			Done: rng.Float64() * demand * 0.8,
		})
	}
	return ready
}

func plansEqual(t *testing.T, label string, a, b Plan) {
	t.Helper()
	if len(a.Segments) != len(b.Segments) || len(a.Allocs) != len(b.Allocs) || len(a.Discarded) != len(b.Discarded) {
		t.Fatalf("%s: shape mismatch: %d/%d/%d vs %d/%d/%d", label,
			len(a.Segments), len(a.Allocs), len(a.Discarded),
			len(b.Segments), len(b.Allocs), len(b.Discarded))
	}
	for i := range a.Segments {
		x, y := a.Segments[i], b.Segments[i]
		if x.ID != y.ID ||
			math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.End) != math.Float64bits(y.End) ||
			math.Float64bits(x.Speed) != math.Float64bits(y.Speed) {
			t.Fatalf("%s: segment %d differs: %+v vs %+v", label, i, x, y)
		}
	}
	for i := range a.Allocs {
		x, y := a.Allocs[i], b.Allocs[i]
		if x.ID != y.ID ||
			math.Float64bits(x.Volume) != math.Float64bits(y.Volume) ||
			math.Float64bits(x.Total) != math.Float64bits(y.Total) {
			t.Fatalf("%s: alloc %d differs: %+v vs %+v", label, i, x, y)
		}
	}
	for i := range a.Discarded {
		if a.Discarded[i] != b.Discarded[i] {
			t.Fatalf("%s: discard %d differs: %d vs %d", label, i, a.Discarded[i], b.Discarded[i])
		}
	}
}

// A reused Planner (dirty scratch, warm memos, recycled dst buffers) must
// produce bit-identical plans to a fresh Planner on every input. This is the
// unit-level half of the engine's golden equivalence guarantee.
func TestPlannerReuseBitIdentical(t *testing.T) {
	for name, cfg := range plannerConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var reused Planner
			var dst Plan
			for trial := 0; trial < 200; trial++ {
				now := rng.Float64() * 10
				ready := randomReady(rng, now, 1+rng.Intn(12))
				budget := cfg.Budget * (0.3 + rng.Float64())
				c := cfg
				c.Budget = budget

				fresh, err := Online(c, now, ready)
				if err != nil {
					t.Fatalf("trial %d: fresh Online: %v", trial, err)
				}
				got, err := reused.Online(dst, c, now, ready)
				if err != nil {
					t.Fatalf("trial %d: reused Online: %v", trial, err)
				}
				plansEqual(t, name, fresh, got)
				dst = got // recycle the destination buffers next trial
			}
		})
	}
}

func TestPlannerFixedSpeedReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused Planner
	var dst Plan
	for trial := 0; trial < 200; trial++ {
		now := rng.Float64() * 10
		ready := randomReady(rng, now, 1+rng.Intn(12))
		speed := 0.5 + rng.Float64()*2.5

		fresh, err := OnlineFixedSpeed(now, ready, speed)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		got, err := reused.FixedSpeed(dst, now, ready, speed)
		if err != nil {
			t.Fatalf("trial %d: reused: %v", trial, err)
		}
		plansEqual(t, "fixed-speed", fresh, got)
		dst = got
	}
}

// After warm-up, planning must not allocate: this is the tentpole's
// zero-alloc guarantee for the Online-QE hot path.
func TestPlannerSteadyStateZeroAlloc(t *testing.T) {
	for name, cfg := range plannerConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			now := 1.0
			ready := randomReady(rng, now, 10)
			var p Planner
			var dst Plan
			var err error
			for i := 0; i < 3; i++ { // warm up buffers and memos
				dst, err = p.Online(dst, cfg, now, ready)
				if err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				dst, err = p.Online(dst, cfg, now, ready)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("steady-state Online allocates %.1f objects/op", allocs)
			}
		})
	}
}

func TestPlannerFixedSpeedSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	now := 1.0
	ready := randomReady(rng, now, 10)
	var p Planner
	var dst Plan
	var err error
	for i := 0; i < 3; i++ {
		dst, err = p.FixedSpeed(dst, now, ready, 2.0)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, err = p.FixedSpeed(dst, now, ready, 2.0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state FixedSpeed allocates %.1f objects/op", allocs)
	}
}

// A job with 6.5 ns of window left and a 1.3e-5 volume to go: the water
// level carries an error of an ulp of the job's ~148 total, which is 2e-9
// of the volume, so Energy-OPT's speed overshoots the budget speed by
// 1.06e-9 relative. This is the planner input that made the classed chaos
// cluster (seed 23) panic with "Theorem 1 violated"; roundoff of this kind
// must be tolerated and clamped, not reported.
func TestOnlineTolerantOfNearlyDoneJobRoundoff(t *testing.T) {
	cfg := Config{Power: power.Model{A: 5, Beta: 2}, Budget: 19.18493135050378}
	now := 287.16631916550637
	ready := []job.Ready{
		{Job: job.Job{ID: 103264, Release: 287.0163191719579, Deadline: 287.16631917195787, Demand: 148.03478174552117, Partial: true}, Done: 148.03476743307667, Running: true},
		{Job: job.Job{ID: 103320, Release: 287.165710156561, Deadline: 287.31571015656095, Demand: 133.91694211991765, Partial: true}},
	}
	plan, err := Online(cfg, now, ready)
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	sStar := cfg.SpeedCap()
	for _, seg := range plan.Segments {
		if seg.Speed > sStar {
			t.Errorf("segment for job %d runs at %v, above the budget speed %v", seg.ID, seg.Speed, sStar)
		}
	}
	if err := plan.Validate(cfg, now, ready); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
}

// The roundoff allowance must not hide a real Theorem 1 violation: a
// segment well above the budget speed is still reported.
func TestCheckTheorem1RejectsRealOvershoot(t *testing.T) {
	allocs := []tians.Allocation{{ID: 1, Volume: 100, Total: 100}}
	segs := []yds.Segment{{ID: 1, Start: 0, End: 0.05, Speed: 2}}
	if err := checkTheorem1(segs, allocs, 2); err != nil {
		t.Fatalf("speed at the cap rejected: %v", err)
	}
	segs[0].Speed = 2 * (1 + 1e-6)
	if err := checkTheorem1(segs, allocs, 2); err == nil {
		t.Fatal("a 1e-6 relative overshoot was accepted")
	}
}
