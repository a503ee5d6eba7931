package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dessched"
)

// sample is the host-side cost of one simulate call.
type sample struct {
	start    time.Time
	wall     float64 // seconds
	cpu      float64 // process user+system CPU seconds
	alloc    uint64  // Go heap bytes allocated (TotalAlloc delta)
	gcCycles uint32
	gcCPU    float64 // GC share of the CPU the Go runtime used
}

func (s sample) end() time.Time { return s.start.Add(time.Duration(s.wall * 1e9)) }

// gcMetrics are the runtime/metrics CPU classes gc_cpu_frac is built from.
var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readGC() (gc, busy float64) {
	s := append([]metrics.Sample(nil), gcMetrics...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// cpuSeconds is the process's user+system CPU time. Getrusage on the
// calling process does not fail on Linux; if it ever did, the 0 would
// show as a cluster.cpu_util of 0 rather than stop the run.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measureCall runs f once after a GC, timing only f.
func measureCall(f func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, busy0 := readGC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0).Seconds()
	cpu1 := cpuSeconds()
	gc1, busy1 := readGC()
	runtime.ReadMemStats(&m1)
	s := sample{
		start:    t0,
		wall:     wall,
		cpu:      cpu1 - cpu0,
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
	}
	if busy1 > busy0 {
		s.gcCPU = (gc1 - gc0) / (busy1 - busy0)
	}
	return s, err
}

// outcome is the modelled result of one simulate call, reduced to what
// the benchmark checks and reports.
type outcome struct {
	arrived, completed, deadlined, discarded, shed, abandoned int
	retried, requeued, hedged, hedgeWins                      int
	budgetViolations, events                                  int

	quality, maxQuality, normQuality, energy float64
	classes                                  []dessched.ClassResult

	spansKept, flightDumps int // classes-chaos observers
}

func fromResult(r dessched.Result) outcome {
	return outcome{
		arrived: r.Arrived, completed: r.Completed, deadlined: r.Deadlined,
		discarded: r.Discarded, shed: r.Shed, abandoned: r.Abandoned,
		retried: r.Retried, requeued: r.Requeued,
		budgetViolations: r.BudgetViolations, events: r.Events,
		quality: r.Quality, maxQuality: r.MaxQuality, normQuality: r.NormQuality,
		energy: r.Energy, classes: r.Classes,
	}
}

func fromCluster(r dessched.ClusterResult) outcome {
	return outcome{
		arrived: r.Arrived, completed: r.Completed, deadlined: r.Deadlined,
		discarded: r.Discarded, shed: r.Shed, abandoned: r.Abandoned,
		retried: r.Retried, requeued: r.Requeued, hedged: r.Hedged, hedgeWins: r.HedgeWins,
		budgetViolations: r.BudgetViolations, events: r.Events,
		quality: r.Quality, maxQuality: r.MaxQuality, normQuality: r.NormQuality,
		energy: r.Energy, classes: r.Classes,
	}
}

// fingerprint hashes the modelled output: the bits of quality and energy,
// every fate count and each class's slice. It leaves out the event count,
// so a faster event queue that pops fewer stale entries keeps the same
// fingerprint, and the observer counts, which only classes-chaos's armed
// variant has.
func (o outcome) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, v := range []int{o.arrived, o.completed, o.deadlined, o.discarded, o.shed,
		o.abandoned, o.retried, o.requeued, o.hedged, o.hedgeWins} {
		u(uint64(v))
	}
	f(o.quality)
	f(o.maxQuality)
	f(o.energy)
	for _, c := range o.classes {
		h.Write([]byte(c.Class))
		f(c.Quality)
		f(c.MaxQuality)
		for _, v := range []int{c.Arrived, c.Completed, c.Deadlined, c.Discarded, c.Shed, c.Abandoned} {
			u(uint64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// check applies the per-call correctness checks that need no other call:
// job conservation, no power-budget violation, quality in [0, 1].
func (o outcome) check() error {
	if o.arrived < 1 {
		return fmt.Errorf("no jobs arrived")
	}
	if n := o.completed + o.deadlined + o.discarded + o.shed + o.abandoned; n != o.arrived {
		return fmt.Errorf("job conservation: %d completed + %d deadlined + %d discarded + %d shed + %d abandoned = %d, want %d arrived",
			o.completed, o.deadlined, o.discarded, o.shed, o.abandoned, n, o.arrived)
	}
	if o.budgetViolations != 0 {
		return fmt.Errorf("%d power-budget violations", o.budgetViolations)
	}
	if !(o.normQuality >= 0 && o.normQuality <= 1) {
		return fmt.Errorf("normalized quality %v outside [0, 1]", o.normQuality)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method, extrapolating for small samples). Below two samples
// every quartile is the value itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
