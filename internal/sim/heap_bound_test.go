package sim_test

import (
	"testing"

	"dessched/internal/core"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

// The event heap holds only events that can still happen — each core's
// next plan-segment boundary, the quantum and the odd fault or retry — so
// its length is bounded by the core count, not by the number of jobs.
func TestHeapStaysOCores(t *testing.T) {
	for _, arch := range []core.Arch{core.CDVFS, core.SDVFS, core.NoDVFS} {
		cfg := sim.PaperConfig()
		core.ApplyArch(&cfg, arch)
		wl := workload.DefaultConfig(200)
		wl.Duration = 20
		jobs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunMaxHeap(cfg, jobs, core.New(arch))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d jobs, heap peaked at %d", arch, len(jobs), got)
		if bound := 2*cfg.Cores + 8; got > bound {
			t.Errorf("%s: heap peaked at %d events, want <= %d (2·cores + 8)", arch, got, bound)
		}
	}
}
