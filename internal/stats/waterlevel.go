package stats

import (
	"math"
	"sort"
)

// WaterLevel solves the generic water-filling problem shared by the paper's
// "WF" power-distribution policy (§IV-C) and Quality-OPT's d-mean job
// allocation (§III): given per-item floors lo[i], ceilings hi[i] and a total
// capacity C >= 0, find the level L minimizing max-unfairness such that
//
//	sum_i ( clamp(L, lo[i], hi[i]) - lo[i] ) = min(C, sum_i (hi[i]-lo[i]))
//
// Each item's share is clamp(L, lo[i], hi[i]) - lo[i]: items whose ceiling
// lies below the level are saturated ("satisfied"); items whose floor lies
// above it receive nothing; the rest are filled exactly to the level.
//
// It returns the level and saturated=true when the capacity suffices to fill
// every item to its ceiling (in which case level is +Inf). lo[i] <= hi[i]
// is required; the function panics otherwise, and on mismatched lengths.
func WaterLevel(capacity float64, lo, hi []float64) (level float64, saturated bool) {
	return WaterLevelScratch(capacity, lo, hi, nil)
}

// WaterLevelScratch is WaterLevel with a caller-supplied scratch buffer for
// the breakpoints, letting hot paths (Online-QE runs one water-filling per
// deadline prefix per core per scheduling event) stay allocation-free.
// The buffer is grown as needed and returned values are identical to
// WaterLevel; pass nil to allocate internally.
//
// The level is found among the breakpoints (every lo and hi value) in
// ascending order: the first breakpoint b where the filled volume
// g(b) = sum clamp(b, lo, hi) - lo reaches the capacity, and the one
// before it. Only the distinct breakpoint values matter, and the first b
// is found by binary search. That search is exact: g is a left-to-right
// sum of terms that are each non-decreasing in b, and rounded addition is
// monotone, so the computed g is non-decreasing too (a NaN g compares
// false, and NaNs sort first) and the search finds the breakpoint a linear
// walk would.
func WaterLevelScratch(capacity float64, lo, hi []float64, scratch *[]float64) (level float64, saturated bool) {
	if len(lo) != len(hi) {
		panic("stats: WaterLevel length mismatch")
	}
	total := 0.0
	signedZero := false
	for i := range lo {
		if hi[i] < lo[i] {
			panic("stats: WaterLevel ceiling below floor")
		}
		total += hi[i] - lo[i]
		if math.Float64bits(lo[i]) == negZero || math.Float64bits(hi[i]) == negZero {
			signedZero = true
		}
	}
	if capacity >= total {
		return math.Inf(1), true
	}
	if capacity < 0 {
		capacity = 0
	}

	var breaks []float64
	if scratch != nil {
		breaks = (*scratch)[:0]
	} else {
		breaks = make([]float64, 0, 2*len(lo))
	}
	if signedZero || total != total {
		// -0 and +0 (or two NaNs) compare equal but differ in bits, and
		// which of them lands next to the level is up to the sort's
		// arrangement of every breakpoint: keep them all.
		breaks = append(breaks, lo...)
	} else {
		// Equal values are identical bits here, so repeated floors (all
		// zero in a power distribution) can go.
		for i, v := range lo {
			if i == 0 || v != lo[i-1] {
				breaks = append(breaks, v)
			}
		}
	}
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

	// First breakpoint with fill(b) >= capacity; len(breaks) if none. The
	// breakpoint before it is the last one probed below the capacity, so
	// fillPrev ends up as fill(prev). (When the first is breakpoint 0,
	// fill(prev) is 0 — no item fills below its lowest floor — and so is
	// the capacity it reaches: need is zero either way.)
	k, n := 0, len(breaks)
	fillPrev := 0.0
	for k < n {
		h := int(uint(k+n) >> 1)
		if f := fill(breaks[h]); f >= capacity {
			n = h
		} else {
			k = h + 1
			fillPrev = f
		}
	}
	if k == len(breaks) {
		// capacity < total guarantees a breakpoint reaches it, but guard
		// against floating-point drift at the last breakpoint.
		return breaks[len(breaks)-1], false
	}
	b, prev := breaks[k], breaks[max(k-1, 0)]
	// The level lies in [prev, b]; g is linear there with slope equal to
	// the number of items whose [lo, hi] straddles it.
	need := capacity - fillPrev
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

// negZero is the bit pattern of -0.
const negZero = 1 << 63

// WaterShares applies WaterLevel and returns each item's share
// clamp(L, lo, hi) - lo. Shares always sum to min(capacity, sum(hi-lo)) up
// to floating-point error.
func WaterShares(capacity float64, lo, hi []float64) []float64 {
	return WaterSharesInto(nil, capacity, lo, hi, nil)
}

// WaterSharesInto is WaterShares appending into dst[:0] (which may be nil)
// with a caller-supplied breakpoint scratch, for allocation-free repeated
// distribution (DES runs one water-filling per policy invocation).
func WaterSharesInto(dst []float64, capacity float64, lo, hi []float64, scratch *[]float64) []float64 {
	level, saturated := WaterLevelScratch(capacity, lo, hi, scratch)
	dst = dst[:0]
	for i := range lo {
		if saturated {
			dst = append(dst, hi[i]-lo[i])
			continue
		}
		v := level
		if v < lo[i] {
			v = lo[i]
		}
		if v > hi[i] {
			v = hi[i]
		}
		dst = append(dst, v-lo[i])
	}
	return dst
}
