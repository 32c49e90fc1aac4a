package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewCountMinValidation(t *testing.T) {
	tests := []struct {
		name              string
		rows, width, bits int
		wantErr           bool
	}{
		{"valid 8-bit", 1, 100, 8, false},
		{"valid 32-bit", 3, 100, 32, false},
		{"zero rows", 0, 100, 8, true},
		{"zero width", 1, 0, 8, true},
		{"bad counter width", 1, 100, 16, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCountMin(tc.rows, tc.width, tc.bits, 1)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewCountMin(%d,%d,%d) err = %v, wantErr=%v",
					tc.rows, tc.width, tc.bits, err, tc.wantErr)
			}
		})
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm, err := NewCountMin(3, 512, 32, 42)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[[2]uint64]uint32)
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([][2]uint64, 200)
	for i := range keys {
		keys[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	for i := 0; i < 5000; i++ {
		k := keys[rng.IntN(len(keys))]
		v := uint32(rng.IntN(5) + 1)
		cm.Add(k[0], k[1], v)
		truth[k] += v
	}
	for k, want := range truth {
		if got := cm.Estimate(k[0], k[1]); got < want {
			t.Fatalf("count-min underestimated: got %d, want >= %d", got, want)
		}
	}
}

func TestCountMinNeverUnderestimatesQuick(t *testing.T) {
	cm, err := NewCountMin(2, 256, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[[2]uint64]uint32)
	f := func(w1, w2 uint64, v uint16) bool {
		cm.Add(w1, w2, uint32(v))
		truth[[2]uint64{w1, w2}] += uint32(v)
		return cm.Estimate(w1, w2) >= truth[[2]uint64{w1, w2}]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCountMin8BitSaturates(t *testing.T) {
	cm, err := NewCountMin(1, 16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cm.Add(1, 2, 300)
	if got := cm.Estimate(1, 2); got != 255 {
		t.Errorf("8-bit counter = %d, want saturation at 255", got)
	}
	cm.Add(1, 2, 10)
	if got := cm.Estimate(1, 2); got != 255 {
		t.Errorf("saturated counter moved to %d", got)
	}
}

func TestCountMin32BitOverflowSaturates(t *testing.T) {
	cm, err := NewCountMin(1, 16, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	cm.Add(1, 2, math.MaxUint32)
	cm.Add(1, 2, 100)
	if got := cm.Estimate(1, 2); got != math.MaxUint32 {
		t.Errorf("32-bit counter = %d, want saturation at MaxUint32", got)
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	// With very few flows and a wide sketch, estimates are exact with high
	// probability.
	cm, err := NewCountMin(3, 4096, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		cm.Add(i, i+1, uint32(i+1))
	}
	for i := uint64(0); i < 10; i++ {
		if got := cm.Estimate(i, i+1); got != uint32(i+1) {
			t.Errorf("sparse estimate for key %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestCountMinCardinality(t *testing.T) {
	cm, err := NewCountMin(1, 10000, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	const n = 3000
	for i := 0; i < n; i++ {
		cm.Add(rng.Uint64(), rng.Uint64(), 1)
	}
	est := cm.EstimateCardinality()
	if math.Abs(est/n-1) > 0.1 {
		t.Errorf("linear counting estimate %.0f for %d distinct flows", est, n)
	}
}

func TestCountMinResetAndMemory(t *testing.T) {
	cm, err := NewCountMin(2, 100, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.MemoryBytes(); got != 2*100*4 {
		t.Errorf("MemoryBytes = %d, want 800", got)
	}
	cm.Add(5, 6, 7)
	cm.Reset()
	if got := cm.Estimate(5, 6); got != 0 {
		t.Errorf("after Reset estimate = %d, want 0", got)
	}
	if cm.Touched() != 2 { // the Estimate call above
		t.Errorf("Touched after reset+estimate = %d, want 2", cm.Touched())
	}
	if cm.Rows() != 2 || cm.Width() != 100 {
		t.Errorf("Rows/Width = %d/%d, want 2/100", cm.Rows(), cm.Width())
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b, err := NewBloom(1<<14, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	type pair struct{ w1, w2 uint64 }
	inserted := make([]pair, 1000)
	for i := range inserted {
		inserted[i] = pair{rng.Uint64(), rng.Uint64()}
		b.AddIfMissing(inserted[i].w1, inserted[i].w2)
	}
	for _, p := range inserted {
		if !b.Contains(p.w1, p.w2) {
			t.Fatalf("false negative for %v", p)
		}
		if b.AddIfMissing(p.w1, p.w2) {
			t.Fatalf("re-adding %v reported it missing", p)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	// m/n = 16 bits per element with k=4 should give fp well under 5%.
	const n = 1 << 10
	b, err := NewBloom(16*n, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < n; i++ {
		b.AddIfMissing(rng.Uint64(), rng.Uint64())
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.Contains(rng.Uint64(), rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.3f, want < 0.05", rate)
	}
}

func TestBloomCardinality(t *testing.T) {
	const n = 5000
	b, err := NewBloom(40*n/4, 4, 7) // FlowRadar-like sizing per flow
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < n; i++ {
		b.AddIfMissing(rng.Uint64(), rng.Uint64())
	}
	est := b.EstimateCardinality()
	if math.Abs(est/n-1) > 0.1 {
		t.Errorf("bloom cardinality estimate %.0f for %d flows", est, n)
	}
}

func TestBloomSaturated(t *testing.T) {
	b, err := NewBloom(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 10000; i++ {
		b.AddIfMissing(rng.Uint64(), rng.Uint64())
	}
	if est := b.EstimateCardinality(); math.IsInf(est, 0) || math.IsNaN(est) {
		t.Errorf("saturated estimator returned %v", est)
	}
}

func TestBloomReset(t *testing.T) {
	b, err := NewBloom(128, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.AddIfMissing(1, 2)
	b.Reset()
	if b.SetBits() != 0 {
		t.Error("Reset left bits set")
	}
	if b.Contains(1, 2) {
		t.Error("Reset filter still contains key")
	}
}

func TestBloomValidation(t *testing.T) {
	if _, err := NewBloom(0, 1, 1); err == nil {
		t.Error("NewBloom accepted 0 bits")
	}
	if _, err := NewBloom(10, 0, 1); err == nil {
		t.Error("NewBloom accepted 0 hashes")
	}
}

func TestLinearCount(t *testing.T) {
	tests := []struct {
		name     string
		m, empty int
		want     float64
	}{
		{"empty table", 100, 100, 0},
		{"zero slots", 0, 0, 0},
		{"half empty", 1000, 500, 1000 * math.Ln2},
		{"clamped full", 100, 0, 100 * math.Log(100)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := LinearCount(tc.m, tc.empty)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("LinearCount(%d,%d) = %v, want %v", tc.m, tc.empty, got, tc.want)
			}
		})
	}
}

func TestLinearCountAccuracy(t *testing.T) {
	// Simulate hashing n distinct items into m slots and estimating n.
	const m = 1 << 14
	for _, load := range []float64{0.2, 0.5, 1.0, 2.0} {
		n := int(load * m)
		slots := make([]bool, m)
		rng := rand.New(rand.NewPCG(uint64(n), 99))
		for i := 0; i < n; i++ {
			slots[rng.IntN(m)] = true
		}
		empty := 0
		for _, s := range slots {
			if !s {
				empty++
			}
		}
		est := LinearCount(m, empty)
		if math.Abs(est/float64(n)-1) > 0.05 {
			t.Errorf("load %.1f: estimate %.0f for %d items", load, est, n)
		}
	}
}
