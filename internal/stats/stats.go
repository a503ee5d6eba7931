// Package stats provides small numerical helpers used across the scheduler
// and the experiment harness: summary statistics, root finding, 1-D
// minimization, and linear least squares. Everything is dependency-free and
// deterministic.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Eps is the default absolute tolerance used by the numeric routines.
const Eps = 1e-9

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (division by n).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ErrNoBracket is returned by Bisect when f(lo) and f(hi) have the same sign.
var ErrNoBracket = errors.New("stats: root not bracketed")

// Bisect finds x in [lo, hi] with f(x) ~= 0 by bisection. f must be
// continuous and f(lo), f(hi) must have opposite signs (or one of them be
// zero). The result is within tol of a root.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// GoldenMin minimizes a unimodal function f on [lo, hi] by golden-section
// search, returning the minimizing x to within tol.
func GoldenMin(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}

// LinFit fits y = m*x + c by ordinary least squares and returns (m, c).
// It panics if len(x) != len(y) or fewer than two points are given.
func LinFit(x, y []float64) (m, c float64) {
	if len(x) != len(y) {
		panic("stats: LinFit length mismatch")
	}
	if len(x) < 2 {
		panic("stats: LinFit needs at least two points")
	}
	n := float64(len(x))
	sx, sy, sxx, sxy := 0.0, 0.0, 0.0, 0.0
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinFit degenerate x values")
	}
	m = (n*sxy - sx*sy) / den
	c = (sy - m*sx) / n
	return m, c
}

// Solve2x2 solves the linear system
//
//	a11*x + a12*y = b1
//	a21*x + a22*y = b2
//
// returning (x, y, ok). ok is false when the system is singular.
func Solve2x2(a11, a12, a21, a22, b1, b2 float64) (x, y float64, ok bool) {
	det := a11*a22 - a12*a21
	if math.Abs(det) < 1e-300 {
		return 0, 0, false
	}
	x = (b1*a22 - b2*a12) / det
	y = (a11*b2 - a21*b1) / det
	return x, y, true
}

// AlmostEqual reports whether a and b are equal within tol, absolutely or
// relative to their magnitude.
func AlmostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}
