// Package mix holds the stable, platform-independent hashes the simulator
// stores or derives seeds from: an FNV-1a accumulator over typed fields
// (config fingerprints in snapshots and ledger entries, rolling workload
// hashes) and the splitmix64 finalizer (per-server seeds, sticky routing,
// span sampling). Their outputs are persisted, so they must never change.
package mix

import "math"

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV is a 64-bit FNV-1a accumulator; Sum is the running hash. Start from
// NewFNV.
type FNV struct{ Sum uint64 }

// NewFNV returns an accumulator at the FNV-1a offset basis.
func NewFNV() FNV { return FNV{Sum: fnvOffset} }

// U64 folds v in as eight little-endian bytes.
func (f *FNV) U64(v uint64) {
	for i := 0; i < 8; i++ {
		f.Sum ^= v & 0xff
		f.Sum *= fnvPrime
		v >>= 8
	}
}

// F64 folds in the IEEE-754 bits of v.
func (f *FNV) F64(v float64) { f.U64(math.Float64bits(v)) }

// Bool folds v in as the integer 1 or 0.
func (f *FNV) Bool(v bool) {
	if v {
		f.U64(1)
	} else {
		f.U64(0)
	}
}

// Bytes folds in the bytes of s only. Callers that need strings to be
// self-delimiting add the length themselves, before or after — existing
// fingerprints fix which.
func (f *FNV) Bytes(s string) {
	for i := 0; i < len(s); i++ {
		f.Sum ^= uint64(s[i])
		f.Sum *= fnvPrime
	}
}

// String returns the FNV-1a hash of the bytes of s.
func String(s string) uint64 {
	f := NewFNV()
	f.Bytes(s)
	return f.Sum
}

// SplitMix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed 64-bit hash.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
