package sim_test

import (
	"fmt"
	"math"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/core"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/quality"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

// engineGoldenCase is one pinned engine run: an architecture at a rate and
// seed on the paper server, optionally with one of the feature variants.
type engineGoldenCase struct {
	arch    core.Arch
	rate    float64
	seed    uint64
	variant string // "", "discrete", "classes-chaos", "idle-burn", "budget-fault", "outage" or "checkpoint"
}

// engineGoldenWant pins a run's outputs: Float64bits of the float fields
// and every count except Events, whose meaning depends on how the engine
// schedules its internal bookkeeping.
type engineGoldenWant struct {
	quality, energy, idleEnergy, peakPower, skippedTime uint64
	arrived, completed, deadlined, discarded, shed      int
	requeued, retried, abandoned, invocation, violation int
}

func engineGoldenWantOf(r sim.Result) engineGoldenWant {
	return engineGoldenWant{
		quality:     math.Float64bits(r.Quality),
		energy:      math.Float64bits(r.Energy),
		idleEnergy:  math.Float64bits(r.IdleEnergy),
		peakPower:   math.Float64bits(r.PeakPower),
		skippedTime: math.Float64bits(r.SkippedTime),
		arrived:     r.Arrived,
		completed:   r.Completed,
		deadlined:   r.Deadlined,
		discarded:   r.Discarded,
		shed:        r.Shed,
		requeued:    r.Requeued,
		retried:     r.Retried,
		abandoned:   r.Abandoned,
		invocation:  r.Invocation,
		violation:   r.BudgetViolations,
	}
}

// engineGoldenRun runs one case: the paper server (16 cores, 320 W) under
// the DES policy for 3 simulated seconds of the paper workload.
func engineGoldenRun(t *testing.T, c engineGoldenCase) sim.Result {
	t.Helper()
	cfg := sim.PaperConfig()
	wl := workload.DefaultConfig(c.rate)
	wl.Duration = 3
	wl.Seed = c.seed
	classed := false
	switch c.variant {
	case "discrete":
		cfg.Ladder = power.DefaultLadder
	case "classes-chaos":
		// Idle-core and quantum triggers only, prioritized SJF queues over
		// two classes, seeded core/budget faults with repair, and retry.
		cfg.Triggers = sim.Triggers{Quantum: 0.5, IdleCore: true}
		cc := sim.DefaultChaos(c.seed, wl.Duration, cfg.Cores)
		cc.CoreFaults = 6
		cc.OutageFraction = 0.6
		cc.MTTR = 0.4
		plan, err := cc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		wl.Bursts = plan.Apply(&cfg)
		cfg.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.01, MaxBackoff: 0.05}
		cfg.Admission = admission.Config{Policy: admission.Priority, MaxQueue: 24}
		cfg.QueueOrder = sim.OrderPrioSJF
		cfg.ClassPriority = map[string]int{"gold": 2}
		cfg.ClassQuality = map[string]quality.Function{"bronze": quality.Linear{Span: 500}}
		classed = true
	case "idle-burn":
		// No config change: under No-DVFS at a light load most cores sit
		// idle, each drawing its base speed's power.
	case "budget-fault":
		// The budget halves for one second. A No-DVFS core keeps its
		// nominal-budget speed, so every event in the window is a violation.
		cfg.BudgetFaults = []sim.BudgetFault{{Start: 1, End: 2, Fraction: 0.5}}
	case "outage":
		// Two cores die mid-run: their plans are cleared and their jobs
		// requeued; one comes back, the other stays dark.
		cfg.Faults = []sim.Fault{
			{Core: 3, Start: 0.8, End: 1.9, SpeedFactor: 0},
			{Core: 11, Start: 1.3, End: sim.Forever, SpeedFactor: 0},
		}
	}
	core.ApplyArch(&cfg, c.arch)
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	if classed {
		// Every third job is gold. Each class is a subsequence of an
		// agreeable stream, so both stay agreeable.
		for i := range jobs {
			jobs[i].Class = "bronze"
			if i%3 == 0 {
				jobs[i].Class = "gold"
			}
		}
	}
	if c.variant == "checkpoint" {
		return engineGoldenResume(t, cfg, jobs, c.arch)
	}
	res, err := sim.Run(cfg, jobs, core.New(c.arch))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// engineGoldenResume checkpoints the run at a period that falls inside
// plan segments, then resumes from the middle snapshot after a JSON round
// trip and returns the resumed run's result.
func engineGoldenResume(t *testing.T, cfg sim.Config, jobs []job.Job, arch core.Arch) sim.Result {
	t.Helper()
	var snaps [][]byte
	ck := cfg
	ck.Checkpoint = &sim.CheckpointConfig{Every: 0.37, Sink: func(s *sim.Snapshot) error {
		b, err := sim.EncodeSnapshot(s)
		snaps = append(snaps, b)
		return err
	}}
	if _, err := sim.Run(ck, jobs, core.New(arch)); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("need at least 3 snapshots, got %d", len(snaps))
	}
	snap, err := sim.DecodeSnapshot(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Resume(cfg, core.New(arch), snap)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The engine's outputs are pinned across engine rewrites: every float field
// bit for bit and every count except Events, over the three architectures
// at three loads and seeds, a discrete ladder, a classed chaos run with
// retry and idle-core triggering, No-DVFS idle burn, a budget-fault window
// that counts violations, core outages that clear plans, and a resume from
// a checkpoint taken inside plan segments. The optimized-vs-naive and resume-vs-
// uninterrupted tests each compare two runs of the current engine; this
// table compares it against recorded values.
func TestEngineGolden(t *testing.T) {
	for _, g := range engineGoldens {
		name := fmt.Sprintf("%s/r%g/seed%d", g.c.arch, g.c.rate, g.c.seed)
		if g.c.variant != "" {
			name += "/" + g.c.variant
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := engineGoldenWantOf(engineGoldenRun(t, g.c))
			if got != g.want {
				t.Errorf("outputs moved:\n got  %+v\n want %+v", got, g.want)
			}
		})
	}
}

// engineGoldens holds recorded outputs. An engine change must reproduce
// them; one that changes outputs on purpose must say why when it re-records
// them.
var engineGoldens = []struct {
	c    engineGoldenCase
	want engineGoldenWant
}{
	{engineGoldenCase{arch: core.CDVFS, rate: 100, seed: 1}, engineGoldenWant{0x406051e8a896ba63, 0x407eb283e6d8faf0, 0x0, 0x4074000000000002, 0x0, 287, 282, 5, 0, 0, 0, 0, 0, 414, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 100, seed: 2}, engineGoldenWant{0x406109a16b75392b, 0x407e52cfcbb54123, 0x0, 0x4074000000000001, 0x0, 306, 304, 2, 0, 0, 0, 0, 0, 386, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 100, seed: 3}, engineGoldenWant{0x4060e49c0421376c, 0x407ed8e4f90e7756, 0x0, 0x4074000000000000, 0x0, 303, 301, 2, 0, 0, 0, 0, 0, 404, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 200, seed: 1}, engineGoldenWant{0x406d1158642419db, 0x408cb8956b062b4f, 0x0, 0x4074000000000002, 0x0, 603, 230, 373, 0, 0, 0, 0, 0, 118, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 200, seed: 2}, engineGoldenWant{0x406d9af55225dd3f, 0x408d3f02cfdb4e1e, 0x0, 0x4074000000000003, 0x0, 603, 280, 323, 0, 0, 0, 0, 0, 110, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 200, seed: 3}, engineGoldenWant{0x406d5a563ae2808c, 0x408c9f3c47dbd0c8, 0x0, 0x4074000000000002, 0x0, 603, 285, 318, 0, 0, 0, 0, 0, 112, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 400, seed: 1}, engineGoldenWant{0x4071410b231d473b, 0x408eeb336621bbcc, 0x0, 0x4074000000000001, 0x0, 1199, 2, 1197, 0, 0, 0, 0, 0, 183, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 400, seed: 2}, engineGoldenWant{0x407154b05db12e8b, 0x408f07b174d87e80, 0x0, 0x4074000000000000, 0x0, 1225, 0, 1225, 0, 0, 0, 0, 0, 187, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 400, seed: 3}, engineGoldenWant{0x40714881230764d4, 0x408f24b13cc4a3df, 0x0, 0x4074000000000002, 0x3cd4000000000000, 1179, 1, 1178, 0, 0, 0, 0, 0, 181, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 100, seed: 1}, engineGoldenWant{0x405fc13291e66532, 0x408043bf98160b0d, 0x0, 0x4074000000000000, 0x0, 287, 258, 29, 0, 0, 0, 0, 0, 556, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 100, seed: 2}, engineGoldenWant{0x4060b8d086ce5879, 0x4080d2bd29fb0d13, 0x0, 0x4074000000000000, 0x0, 306, 281, 25, 0, 0, 0, 0, 0, 575, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 100, seed: 3}, engineGoldenWant{0x40607fac80e7d256, 0x4080ca5d6e2b74e8, 0x0, 0x4074000000000000, 0x0, 303, 277, 26, 0, 0, 0, 0, 0, 584, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 200, seed: 1}, engineGoldenWant{0x406d957171a0a210, 0x408d8df88c22d9e8, 0x0, 0x4074000000000000, 0x3cc0000000000000, 603, 309, 294, 0, 0, 0, 0, 0, 247, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 200, seed: 2}, engineGoldenWant{0x406e1a6c3fe3b0b1, 0x408e32fcea782a0c, 0x0, 0x4074000000000000, 0x0, 603, 352, 251, 0, 0, 0, 0, 0, 243, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 200, seed: 3}, engineGoldenWant{0x406ddcf33845d2e6, 0x408dd4e1bb32c5ce, 0x0, 0x4074000000000000, 0x0, 603, 362, 241, 0, 0, 0, 0, 0, 202, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 400, seed: 1}, engineGoldenWant{0x40715403759f5809, 0x408f145127f6bf0a, 0x0, 0x4074000000000000, 0x0, 1199, 12, 1187, 0, 0, 0, 0, 0, 184, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 400, seed: 2}, engineGoldenWant{0x40716474a720a03e, 0x408f1af4bc58b894, 0x0, 0x4074000000000000, 0x3cc8000000000000, 1225, 12, 1213, 0, 0, 0, 0, 0, 187, 0}},
	{engineGoldenCase{arch: core.SDVFS, rate: 400, seed: 3}, engineGoldenWant{0x40714a7215809af2, 0x408f1102e786f113, 0x0, 0x4074000000000000, 0x3ce2000000000000, 1179, 3, 1176, 0, 0, 0, 0, 0, 181, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 100, seed: 1}, engineGoldenWant{0x405fc4cd186e7e68, 0x408f4c09f0fcd954, 0x407d3e27d30e8640, 0x4074000000000000, 0x0, 287, 259, 28, 0, 0, 0, 0, 0, 559, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 100, seed: 2}, engineGoldenWant{0x4060b8e2a31408ad, 0x408f0aa89a4e80f2, 0x407b2df38e8c8c1c, 0x4074000000000000, 0x0, 306, 281, 25, 0, 0, 0, 0, 0, 577, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 100, seed: 3}, engineGoldenWant{0x40607fac80e7d256, 0x408f37ea9697c440, 0x407bf9082ccae557, 0x4074000000000000, 0x0, 303, 277, 26, 0, 0, 0, 0, 0, 585, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 200, seed: 1}, engineGoldenWant{0x406d9697c9a3fd1e, 0x408f1b53bddf8600, 0x404859786492cc84, 0x4074000000000000, 0x3cc0000000000000, 603, 308, 295, 0, 0, 0, 0, 0, 247, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 200, seed: 2}, engineGoldenWant{0x406e1bceaf78710f, 0x408f75cf6a06e34c, 0x4043e18263e085c8, 0x4074000000000000, 0x0, 603, 353, 250, 0, 0, 0, 0, 0, 245, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 200, seed: 3}, engineGoldenWant{0x406ddd794e3618c7, 0x408f15ed93c66915, 0x40431d3d735848c4, 0x4074000000000000, 0x0, 603, 362, 241, 0, 0, 0, 0, 0, 202, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 400, seed: 1}, engineGoldenWant{0x40715403759f5809, 0x408f7b598fe635ec, 0x4029c219fbddb8a0, 0x4074000000000000, 0x0, 1199, 12, 1187, 0, 0, 0, 0, 0, 184, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 400, seed: 2}, engineGoldenWant{0x407165a9dc4f692e, 0x408f7c90c32f6b9d, 0x402766e82aabc3f0, 0x4074000000000000, 0x3cc8000000000000, 1225, 12, 1213, 0, 0, 0, 0, 0, 187, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 400, seed: 3}, engineGoldenWant{0x40714a7215809af2, 0x408f71ba2e3ca8e3, 0x40282dd1ad6df410, 0x4074000000000000, 0x3ce2000000000000, 1179, 3, 1176, 0, 0, 0, 0, 0, 181, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 200, seed: 4, variant: "discrete"}, engineGoldenWant{0x406c10ff2b7bd5ec, 0x408c7e4ed7e7e46e, 0x0, 0x4074000000000000, 0x0, 546, 244, 302, 0, 0, 0, 0, 0, 122, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 300, seed: 5, variant: "classes-chaos"}, engineGoldenWant{0x406af40297f6f20a, 0x408d765a5b98bac5, 0x0, 0x4074000000000003, 0x0, 1090, 38, 811, 0, 240, 5, 4, 1, 307, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 20, seed: 6, variant: "idle-burn"}, engineGoldenWant{0x40365ca201f3caad, 0x408dd1d939852109, 0x408ae310e09e3936, 0x4074000000000000, 0x0, 50, 49, 1, 0, 0, 0, 0, 0, 98, 0}},
	{engineGoldenCase{arch: core.NoDVFS, rate: 150, seed: 7, variant: "budget-fault"}, engineGoldenWant{0x406777b8f42d00c1, 0x408f4062f5e11fff, 0x406bbe4caeabe6d9, 0x4074000000000000, 0x0, 436, 390, 46, 0, 0, 0, 0, 0, 702, 447}},
	{engineGoldenCase{arch: core.CDVFS, rate: 150, seed: 8, variant: "outage"}, engineGoldenWant{0x4068919cc7f83a8c, 0x40890e451bc6f925, 0x0, 0x4074000000000004, 0x0, 462, 381, 81, 0, 0, 4, 0, 0, 409, 0}},
	{engineGoldenCase{arch: core.CDVFS, rate: 200, seed: 9, variant: "checkpoint"}, engineGoldenWant{0x406d3f767f57abda, 0x408d21b64d09b262, 0x0, 0x4074000000000002, 0x0, 589, 305, 284, 0, 0, 0, 0, 0, 118, 0}},
}
