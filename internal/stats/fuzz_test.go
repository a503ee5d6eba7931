package stats

import (
	"math"
	"testing"
)

// FuzzWaterLevel checks the conservation and clamping invariants of the
// water-filling kernel on arbitrary inputs.
func FuzzWaterLevel(f *testing.F) {
	f.Add(16.0, 10.0, 9.0, 8.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(100.0, 1.5, 2.5, 3.5, 4.5)
	f.Fuzz(func(t *testing.T, capacity, a, b, c, d float64) {
		vals := []float64{a, b, c, d}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1e12 {
				t.Skip()
			}
		}
		if math.IsNaN(capacity) || math.IsInf(capacity, 0) || math.Abs(capacity) > 1e12 {
			t.Skip()
		}
		lo := []float64{0, 0, 0, 0}
		shares := WaterShares(capacity, lo, vals)
		sum, total := 0.0, 0.0
		for i, s := range shares {
			if s < -1e-9 || s > vals[i]+1e-9 {
				t.Fatalf("share %d = %v outside [0, %v]", i, s, vals[i])
			}
			sum += s
			total += vals[i]
		}
		want := math.Min(math.Max(capacity, 0), total)
		if math.Abs(sum-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("shares sum %v, want %v", sum, want)
		}
	})
}

// FuzzBisect checks that bisection either brackets correctly or reports
// ErrNoBracket, never panicking or looping.
func FuzzBisect(f *testing.F) {
	f.Add(1.0, -2.0, 0.0, 2.0)
	f.Fuzz(func(t *testing.T, m, c, lo, hi float64) {
		for _, v := range []float64{m, c, lo, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		if hi-lo < 1e-9 || hi-lo > 1e9 {
			t.Skip()
		}
		fn := func(x float64) float64 { return m*x + c }
		x, err := Bisect(fn, lo, hi, 1e-9)
		if err == nil {
			if x < lo-1e-9 || x > hi+1e-9 {
				t.Fatalf("root %v outside [%v, %v]", x, lo, hi)
			}
			if math.Abs(fn(x)) > 1e-3*(math.Abs(m)*(hi-lo)+1) {
				t.Fatalf("f(%v) = %v not near zero", x, fn(x))
			}
		}
	})
}

// FuzzWaterLevelExact checks WaterLevelScratch against the linear walk it
// replaced: identical level bits and saturation, or a panic exactly when
// the walk panics, for 0..40 items with repeated and equal floors and
// ceilings, signed zeros, infinities, NaN, zero capacity and capacity at
// or above the total.
func FuzzWaterLevelExact(f *testing.F) {
	f.Add([]byte{4, 0, 40, 0, 50, 0, 60, 0, 70}, 16.0, uint8(0))
	f.Add([]byte{3, 0, 1, 0, 1, 0, 1}, 1.0, uint8(2))
	f.Add([]byte{2, 1, 0, 0, 1}, 0.0, uint8(1))
	f.Add([]byte{2, 14, 14, 0, 16}, 3.0, uint8(4))
	f.Add([]byte{5, 60, 61, 62, 63, 64, 65, 60, 61, 62, 63}, 2.0, uint8(9))
	f.Add([]byte{0}, 1.0, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, capacity float64, mode uint8) {
		capacity, lo, hi := levelCase(data, capacity, mode)
		var scratch []float64
		checkLevelExact(t, capacity, lo, hi, &scratch)
		checkLevelExact(t, capacity, lo, hi, nil)
	})
}
