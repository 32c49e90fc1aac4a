package sketch

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkCountMinAdd(b *testing.B) {
	cm, err := NewCountMin(3, 1<<16, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([][2]uint64, 1024)
	for i := range keys {
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		cm.Add(k[0], k[1], 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm, err := NewCountMin(3, 1<<16, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	keys := make([][2]uint64, 1024)
	for i := range keys {
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
		cm.Add(keys[i][0], keys[i][1], uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		sink ^= cm.Estimate(k[0], k[1])
	}
	_ = sink
}

func BenchmarkBloomAddContains(b *testing.B) {
	bl, err := NewBloom(1<<20, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	keys := make([][2]uint64, 1024)
	for i := range keys {
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		bl.AddIfMissing(k[0], k[1])
	}
}
