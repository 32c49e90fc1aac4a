// Package hashing provides the family of independent hash functions that
// every sketch in this repository builds on.
//
// KeyHash / Family is an allocation-free, xxhash-style mixer specialized
// for the two-word packing of a 104-bit flow key.
//
// Seeds for the family members are derived from a base seed with SplitMix64,
// which guarantees distinct, well-mixed per-function seeds.
package hashing

import "math/bits"

const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
	prime5 = 0x27D4EB2F165667C5
)

// SplitMix64 advances the SplitMix64 sequence: it returns the next state and
// the output value for the current step.
func SplitMix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// KeyHash mixes two 64-bit words (the packed 104-bit flow key) with a seed
// into a 64-bit digest with strong avalanche behaviour.
func KeyHash(seed, w1, w2 uint64) uint64 {
	h := seed + prime5 + 16
	h ^= bits.RotateLeft64(w1*prime2, 31) * prime1
	h = bits.RotateLeft64(h, 27)*prime1 + prime4
	h ^= bits.RotateLeft64(w2*prime2, 31) * prime1
	h = bits.RotateLeft64(h, 27)*prime1 + prime4
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Family is a set of independent hash functions over packed flow keys.
// The zero value is not usable; construct with NewFamily.
type Family struct {
	seeds []uint64
}

// NewFamily derives n independent hash functions from the base seed.
func NewFamily(n int, seed uint64) *Family {
	seeds := make([]uint64, n)
	state := seed
	for i := range seeds {
		state, seeds[i] = SplitMix64(state)
	}
	return &Family{seeds: seeds}
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash evaluates the i-th family member on the packed key.
func (f *Family) Hash(i int, w1, w2 uint64) uint64 {
	return KeyHash(f.seeds[i], w1, w2)
}

// Bucket evaluates the i-th family member and reduces it to [0, n) using
// the high-multiply reduction, which is faster than modulo and unbiased for
// n far below 2^64.
func (f *Family) Bucket(i int, w1, w2 uint64, n uint64) uint64 {
	return Reduce(KeyHash(f.seeds[i], w1, w2), n)
}

// Reduce maps a 64-bit hash uniformly onto [0, n) without division.
func Reduce(h, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}
