package span

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestKeepLimitMatchesFractionRule checks the integer keep test against the
// fraction it replaces, float64(m)/2^53 < rate, on random draws and on the
// draws either side of each rate's limit.
func TestKeepLimitMatchesFractionRule(t *testing.T) {
	rates := []float64{
		0, -1, math.NaN(), math.Inf(-1), 5e-324, 0x1p-60, 0x1p-54, 0x1p-53, 0x1.8p-53,
		1e-9, 0.001, 0.01, 0.1, 1.0 / 3, 0.5, 0.75, 1 - 0x1p-53, math.Nextafter(1, 0),
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		rates = append(rates, rng.Float64(), math.Ldexp(rng.Float64(), -rng.IntN(60)))
	}
	for _, rate := range rates {
		limit := keepLimit(rate)
		draws := []uint64{0, 1, 1<<53 - 1, limit, limit + 1}
		if limit > 0 {
			draws = append(draws, limit-1)
		}
		for range 2000 {
			draws = append(draws, rng.Uint64()>>11)
		}
		for _, m := range draws {
			if m >= 1<<53 {
				continue
			}
			want := float64(m)*(1.0/(1<<53)) < rate
			if got := m < limit; got != want {
				t.Fatalf("rate %g (limit %d), draw %d: integer test %v, fraction test %v", rate, limit, m, got, want)
			}
		}
	}
}
