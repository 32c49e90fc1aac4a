package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hashing"
)

// Bloom is a Bloom filter over packed flow keys. FlowRadar uses one to
// detect the first packet of each flow.
type Bloom struct {
	bitsLen uint64 // number of bits
	words   []uint64
	k       int
	family  *hashing.Family
}

// NewBloom builds a filter with nbits bits and k hash functions.
func NewBloom(nbits, k int, seed uint64) (*Bloom, error) {
	if nbits <= 0 || k <= 0 {
		return nil, fmt.Errorf("sketch: bloom needs positive bits and hashes, got %d bits, k=%d", nbits, k)
	}
	return &Bloom{
		bitsLen: uint64(nbits),
		words:   make([]uint64, (nbits+63)/64),
		k:       k,
		family:  hashing.NewFamily(k, seed),
	}, nil
}

// Bits returns the filter size in bits.
func (b *Bloom) Bits() int { return int(b.bitsLen) }

// Hashes returns the number of hash functions.
func (b *Bloom) Hashes() int { return b.k }

// MemoryBytes returns the memory footprint of the bit array.
func (b *Bloom) MemoryBytes() int { return len(b.words) * 8 }

// Contains reports whether the key is (probably) in the filter.
func (b *Bloom) Contains(w1, w2 uint64) bool {
	for i := 0; i < b.k; i++ {
		pos := b.family.Bucket(i, w1, w2, b.bitsLen)
		if b.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// AddIfMissing inserts the key and reports whether any of its bits were
// previously unset, i.e. whether Contains would have returned false. Each
// of the k hashes both tests and sets its bit, so the membership test and
// the insert cost one probe of the filter.
func (b *Bloom) AddIfMissing(w1, w2 uint64) bool {
	missing := false
	for i := 0; i < b.k; i++ {
		pos := b.family.Bucket(i, w1, w2, b.bitsLen)
		word, bit := pos>>6, uint64(1)<<(pos&63)
		if b.words[word]&bit == 0 {
			missing = true
			b.words[word] |= bit
		}
	}
	return missing
}

// SetBits returns the number of bits currently set.
func (b *Bloom) SetBits() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// EstimateCardinality estimates the number of distinct inserted keys from
// the fill ratio: n ≈ -(m/k) · ln(1 - X/m), the standard Bloom estimator.
// It is insensitive to flow sizes, which is why FlowRadar's cardinality
// estimates stay accurate in the paper's Fig. 7.
func (b *Bloom) EstimateCardinality() float64 {
	x := float64(b.SetBits())
	m := float64(b.bitsLen)
	if x >= m {
		// Filter saturated: every slot set. The estimator diverges; return
		// the value for one unset bit as an upper bound.
		x = m - 1
	}
	return -(m / float64(b.k)) * math.Log(1-x/m)
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
