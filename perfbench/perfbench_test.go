package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// short returns w with a horizon small enough for a unit test.
func short(w workload) workload {
	w.horizon = map[string]float64{"server-paper": 30, "fleet-stream": 2, "classes-chaos": 20}[w.name]
	return w
}

func setUpShort(t *testing.T, w workload, seed uint64) *instance {
	t.Helper()
	inst, err := w.setup(seed, short(w).horizon)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	return inst
}

func fingerprintOf(t *testing.T, w workload, inst *instance, v variant) string {
	t.Helper()
	out, _, err := inst.run(v)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if err := out.check(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return out.fingerprint()
}

func TestWrappersKeepFingerprint(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst := setUpShort(t, w, 1)
			bare := fingerprintOf(t, w, inst, variant{})
			tr := newTracer()
			pr := &runProbes{tr: tr, parent: tr.reserve("run", rootSpan)}
			if got := fingerprintOf(t, w, inst, variant{pr: pr}); got != bare {
				t.Errorf("wrapped call fingerprint %s, bare %s", got, bare)
			}
			if p := pr.plan.fold(); p.calls == 0 || p.h.n != uint64(p.calls) {
				t.Errorf("plan probe saw %d calls, histogram %d", p.calls, p.h.n)
			}
			if w.name == "fleet-stream" && (pr.source == nil || pr.source.calls == 0) {
				t.Errorf("source probe saw no Next calls")
			}
			if w.name == "classes-chaos" {
				if got := fingerprintOf(t, w, inst, variant{unarmed: true}); got != bare {
					t.Errorf("unarmed call fingerprint %s, armed %s", got, bare)
				}
			}
		})
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := fingerprintOf(t, w, setUpShort(t, w, 1), variant{})
			b := fingerprintOf(t, w, setUpShort(t, w, 1), variant{})
			c := fingerprintOf(t, w, setUpShort(t, w, 2), variant{})
			if a != b {
				t.Errorf("seed 1 gave fingerprints %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 both gave fingerprint %s", a)
			}
		})
	}
}

// TestTracedRunMatchesUntraced runs both modes end to end on a short
// horizon: each reports exactly its metric set, every call passes, and
// the traced run reproduces the untraced fingerprint.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{workload: w.name, seed: 3, seconds: 1e-3, out: t.TempDir()}
			bare := &runner{w: short(w), opt: opt, log: io.Discard}
			rep, err := runEndToEnd(bare)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			opt.trace = true
			traced := &runner{w: short(w), opt: opt, log: io.Discard}
			if rep, err = runTraced(traced); err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if bare.fp != traced.fp {
				t.Errorf("traced fingerprint %s, untraced %s", traced.fp, bare.fp)
			}
			if rep.Metrics["bench.trace_overhead"].Value <= 0 {
				t.Errorf("bench.trace_overhead not reported")
			}
		})
	}
}

func checkReport(t *testing.T, rep report, want []metric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("report correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	checkMetricSet(t, rep, want)
}

// checkMetricSet checks that rep holds exactly the metrics of want.
func checkMetricSet(t *testing.T, rep report, want []metric) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := rep.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.name, v, m.unit)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !valid.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var fileNames []string
	for _, w := range bf.Workloads {
		fileNames = append(fileNames, w.Name)
	}
	if !slices.Equal(names, fileNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, fileNames)
	}
	for _, tc := range []struct {
		code []metric
		file []struct{ Name, Unit, Better string }
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(tc.code) != len(tc.file) {
			t.Errorf("code has %d metrics, BENCHMARK.json %d", len(tc.code), len(tc.file))
			continue
		}
		for i, m := range tc.code {
			f := tc.file[i]
			if f.Name != m.name || f.Unit != m.unit || (f.Better != "higher" && f.Better != "lower") {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s] better=%q", i, m.name, m.unit, f.Name, f.Unit, f.Better)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if [3]float64{q1, med, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, med, q3, tc.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(tc.q); got < tc.want*0.93 || got > tc.want*1.07 {
			t.Errorf("quantile(%v) = %v ns, want %v within one bucket", tc.q, got, tc.want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile not 0")
	}
}

func TestSuperviseReportsCrashedChild(t *testing.T) {
	var out strings.Builder
	crash := exec.Command("sh", "-c", `echo "call 1: ok, 0.5 s"; echo "call 2: failed: bad"; kill -9 $$`)
	if code := supervise(crash, endToEnd, &out); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if rep.Correct || rep.Attempted != 3 || rep.Failed != 2 {
		t.Errorf("got correct=%v attempted=%d failed=%d, want false 3 2", rep.Correct, rep.Attempted, rep.Failed)
	}
	checkMetricSet(t, rep, endToEnd)

	out.Reset()
	ok := exec.Command("sh", "-c", `echo "call 1: ok, 0.5 s"; echo '{"correct":true}'`)
	if code := supervise(ok, endToEnd, &out); code != 0 || !strings.HasSuffix(out.String(), "{\"correct\":true}\n") {
		t.Errorf("clean child: exit %d, output %q", code, out.String())
	}
}
