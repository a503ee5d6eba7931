package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestWaterLevelSaturated(t *testing.T) {
	lo := []float64{0, 0, 0}
	hi := []float64{1, 2, 3}
	level, sat := WaterLevel(10, lo, hi)
	if !sat || !math.IsInf(level, 1) {
		t.Errorf("expected saturation, got (%v, %v)", level, sat)
	}
	shares := WaterShares(10, lo, hi)
	for i, want := range []float64{1, 2, 3} {
		if shares[i] != want {
			t.Errorf("share[%d] = %v, want %v", i, shares[i], want)
		}
	}
}

func TestWaterLevelPaperExample(t *testing.T) {
	// Figure 2: four cores, one requesting less than the equal share gets
	// its demand; the other three split the rest equally.
	// Requests 10, 9, 8, 1 with budget 16: core 4 gets 1, level for the
	// rest: 15/3 = 5.
	lo := []float64{0, 0, 0, 0}
	hi := []float64{10, 9, 8, 1}
	shares := WaterShares(16, lo, hi)
	want := []float64{5, 5, 5, 1}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 1e-12 {
			t.Errorf("shares = %v, want %v", shares, want)
			break
		}
	}
	level, sat := WaterLevel(16, lo, hi)
	if sat || math.Abs(level-5) > 1e-12 {
		t.Errorf("level = %v, want 5", level)
	}
}

func TestWaterLevelWithFloors(t *testing.T) {
	// Items with prior progress (floors): capacity fills the lowest first.
	lo := []float64{4, 0}
	hi := []float64{10, 10}
	// With capacity 4, the second item catches up to 4 and then both rise
	// to 4 (exactly consumed at L=4): shares (0, 4).
	shares := WaterShares(4, lo, hi)
	if math.Abs(shares[0]-0) > 1e-12 || math.Abs(shares[1]-4) > 1e-12 {
		t.Errorf("shares = %v, want [0 4]", shares)
	}
	// With capacity 6, both rise to 5: shares (1, 5).
	shares = WaterShares(6, lo, hi)
	if math.Abs(shares[0]-1) > 1e-12 || math.Abs(shares[1]-5) > 1e-12 {
		t.Errorf("shares = %v, want [1 5]", shares)
	}
}

func TestWaterLevelZeroAndNegativeCapacity(t *testing.T) {
	lo := []float64{0, 2}
	hi := []float64{5, 6}
	for _, c := range []float64{0, -3} {
		shares := WaterShares(c, lo, hi)
		for i, s := range shares {
			if s != 0 {
				t.Errorf("capacity %v: share[%d] = %v, want 0", c, i, s)
			}
		}
	}
}

func TestWaterLevelEmpty(t *testing.T) {
	level, sat := WaterLevel(5, nil, nil)
	if !sat || !math.IsInf(level, 1) {
		t.Errorf("empty: (%v, %v)", level, sat)
	}
}

func TestWaterLevelExactBoundary(t *testing.T) {
	lo := []float64{0, 0}
	hi := []float64{3, 7}
	// capacity exactly total: saturated.
	if _, sat := WaterLevel(10, lo, hi); !sat {
		t.Error("capacity == total should saturate")
	}
	// capacity just below.
	level, sat := WaterLevel(10-1e-9, lo, hi)
	if sat || level > 7 {
		t.Errorf("level = %v, sat=%v", level, sat)
	}
}

func TestWaterLevelPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("length mismatch", func() { WaterLevel(1, []float64{0}, nil) })
	assertPanic("ceiling below floor", func() { WaterLevel(1, []float64{2}, []float64{1}) })
}

// Property: shares are non-negative, never exceed hi-lo, and sum to
// min(capacity, total headroom).
func TestWaterSharesConservationProperty(t *testing.T) {
	prop := func(raw []uint16, capI uint16) bool {
		n := len(raw) / 2
		if n == 0 {
			return true
		}
		lo := make([]float64, n)
		hi := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			lo[i] = float64(raw[2*i]) / 1000
			hi[i] = lo[i] + float64(raw[2*i+1])/1000
			total += hi[i] - lo[i]
		}
		capacity := float64(capI) / 65535 * total * 1.5
		shares := WaterShares(capacity, lo, hi)
		sum := 0.0
		for i, s := range shares {
			if s < -1e-9 || s > hi[i]-lo[i]+1e-9 {
				return false
			}
			sum += s
		}
		want := math.Min(capacity, total)
		return math.Abs(sum-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: min-max fairness — for items with equal floors, a smaller
// ceiling never receives more than a larger ceiling.
func TestWaterSharesFairnessProperty(t *testing.T) {
	prop := func(raw []uint16, capI uint16) bool {
		n := len(raw)
		if n < 2 {
			return true
		}
		lo := make([]float64, n)
		hi := make([]float64, n)
		total := 0.0
		for i, r := range raw {
			hi[i] = float64(r) / 100
			total += hi[i]
		}
		capacity := float64(capI) / 65535 * total
		shares := WaterShares(capacity, lo, hi)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if hi[i] <= hi[j] && shares[i] > shares[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// waterLevelWalk is the original WaterLevelScratch, kept verbatim as the
// oracle of the binary-search form: it sorts every breakpoint and walks
// them in order, recomputing the fill at each.
func waterLevelWalk(capacity float64, lo, hi []float64, scratch *[]float64) (level float64, saturated bool) {
	if len(lo) != len(hi) {
		panic("stats: WaterLevel length mismatch")
	}
	total := 0.0
	for i := range lo {
		if hi[i] < lo[i] {
			panic("stats: WaterLevel ceiling below floor")
		}
		total += hi[i] - lo[i]
	}
	if capacity >= total {
		return math.Inf(1), true
	}
	if capacity < 0 {
		capacity = 0
	}

	// g(L) = sum clamp(L, lo, hi) - lo is piecewise linear and
	// non-decreasing; walk its breakpoints (all lo and hi values) in order.
	var breaks []float64
	if scratch != nil {
		breaks = (*scratch)[:0]
	} else {
		breaks = make([]float64, 0, 2*len(lo))
	}
	breaks = append(breaks, lo...)
	breaks = append(breaks, hi...)
	sort.Float64s(breaks)
	if scratch != nil {
		*scratch = breaks
	}

	fill := func(L float64) float64 {
		s := 0.0
		for i := range lo {
			v := L
			if v < lo[i] {
				v = lo[i]
			}
			if v > hi[i] {
				v = hi[i]
			}
			s += v - lo[i]
		}
		return s
	}

	prev := breaks[0]
	for _, b := range breaks {
		if fill(b) >= capacity {
			// The level lies in [prev, b]; g is linear there with slope
			// equal to the number of items whose [lo, hi] straddles it.
			need := capacity - fill(prev)
			slope := 0.0
			for i := range lo {
				if lo[i] <= prev && hi[i] >= b && hi[i] > lo[i] {
					slope++
				}
			}
			if slope == 0 || need <= 0 {
				return prev, false
			}
			return prev + need/slope, false
		}
		prev = b
	}
	// capacity < total guarantees we return inside the loop, but guard
	// against floating-point drift at the last breakpoint.
	return breaks[len(breaks)-1], false
}

// levelOutcome is one water-level call's result, or the fact that it
// panicked.
type levelOutcome struct {
	bits      uint64
	saturated bool
	panicked  bool
}

func callLevel(f func(float64, []float64, []float64, *[]float64) (float64, bool), capacity float64, lo, hi []float64, scratch *[]float64) (o levelOutcome) {
	defer func() {
		if recover() != nil {
			o = levelOutcome{panicked: true}
		}
	}()
	level, sat := f(capacity, lo, hi, scratch)
	return levelOutcome{bits: math.Float64bits(level), saturated: sat}
}

// levelPalette holds the bound values exact-match cases draw from: repeats,
// signed zeros, infinities, NaNs with two payloads, subnormals and
// near-ties.
var levelPalette = []float64{
	0, math.Copysign(0, -1), 1, 1, 2, 2.5, 3, 0.1, 0.3, 0.1 + 0.2, 7.75,
	1e-300, 5e-324, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), -1.5,
	math.Float64frombits(0xfff8_0000_0000_0123),
}

// levelCase decodes bytes into a water-level problem of 0..40 items. Each
// item takes two bytes, picking its floor and ceiling from levelPalette or
// a coarse grid (so equal floors and ceilings are common); mode picks the
// capacity: the given one, zero, exactly the total, a fraction of it,
// NaN, or its negation.
func levelCase(data []byte, capacity float64, mode uint8) (float64, []float64, []float64) {
	n := 0
	if len(data) > 0 {
		n = int(data[0]) % 41
		data = data[1:]
	}
	if n > len(data)/2 {
		n = len(data) / 2
	}
	val := func(b byte) float64 {
		if int(b) < 3*len(levelPalette) {
			return levelPalette[int(b)%len(levelPalette)]
		}
		return float64(b%16) / 4
	}
	lo := make([]float64, n)
	hi := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		lo[i], hi[i] = val(data[2*i]), val(data[2*i+1])
		if hi[i] < lo[i] && mode&0x80 == 0 {
			lo[i], hi[i] = hi[i], lo[i]
		}
		total += hi[i] - lo[i]
	}
	switch mode % 6 {
	case 1:
		capacity = 0
	case 2:
		capacity = total
	case 3:
		capacity = total * float64(mode%16) / 16
	case 4:
		capacity = math.NaN()
	case 5:
		capacity = -capacity
	}
	return capacity, lo, hi
}

// checkLevelExact asserts that WaterLevelScratch returns the walk's level
// bits and saturation, or panics exactly when the walk does.
func checkLevelExact(t *testing.T, capacity float64, lo, hi []float64, scratch *[]float64) {
	t.Helper()
	want := callLevel(waterLevelWalk, capacity, lo, hi, nil)
	if got := callLevel(WaterLevelScratch, capacity, lo, hi, scratch); got != want {
		t.Fatalf("WaterLevelScratch(%v, %v, %v) = %+v, walk %+v", capacity, lo, hi, got, want)
	}
}

// The binary-search kernel returns the linear walk's level bit for bit on
// generated cases of up to 40 items, reusing one scratch buffer throughout.
func TestWaterLevelMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	var scratch []float64
	data := make([]byte, 81)
	for iter := 0; iter < 50000; iter++ {
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		capacity := rng.Float64() * 40
		capacity, lo, hi := levelCase(data, capacity, byte(rng.UintN(256)))
		checkLevelExact(t, capacity, lo, hi, &scratch)
	}
}

// BenchmarkWaterLevel times the kernel on the shapes the engine feeds it:
// the 16-core power distribution (zero floors, one request per core) and
// Quality-OPT's two- and three-job deadline prefixes.
func BenchmarkWaterLevel(b *testing.B) {
	wf := make([]float64, 16)
	req := make([]float64, 16)
	for i := range req {
		req[i] = float64(5 + i*7%40)
	}
	cases := []struct {
		name     string
		capacity float64
		lo, hi   []float64
	}{
		{"wf16", 320, wf, req},
		{"prefix2", 300, []float64{120, 0}, []float64{610, 480}},
		{"prefix3", 500, []float64{120, 0, 0}, []float64{610, 480, 930}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var scratch []float64
			for i := 0; i < b.N; i++ {
				WaterLevelScratch(c.capacity, c.lo, c.hi, &scratch)
			}
		})
	}
}
