package metrics

import (
	"math"
	"testing"

	"repro/flow"
)

func buildTruth(counts map[flow.Key]uint32) *flow.Truth {
	t := flow.NewTruth(len(counts))
	for k, c := range counts {
		for i := uint32(0); i < c; i++ {
			t.Observe(flow.Packet{Key: k})
		}
	}
	return t
}

var (
	k1 = flow.Key{SrcIP: 1}
	k2 = flow.Key{SrcIP: 2}
	k3 = flow.Key{SrcIP: 3}
	k4 = flow.Key{SrcIP: 4}
)

func TestFSC(t *testing.T) {
	truth := buildTruth(map[flow.Key]uint32{k1: 5, k2: 3, k3: 1, k4: 1})
	tests := []struct {
		name     string
		reported []flow.Record
		want     float64
	}{
		{"all correct", []flow.Record{{Key: k1}, {Key: k2}, {Key: k3}, {Key: k4}}, 1.0},
		{"half", []flow.Record{{Key: k1}, {Key: k2}}, 0.5},
		{"bogus keys ignored", []flow.Record{{Key: k1}, {Key: flow.Key{SrcIP: 99}}}, 0.25},
		{"duplicates count once", []flow.Record{{Key: k1}, {Key: k1}, {Key: k1}}, 0.25},
		{"empty", nil, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := FSC(tc.reported, truth); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("FSC = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFSCEmptyTruth(t *testing.T) {
	if got := FSC([]flow.Record{{Key: k1}}, flow.NewTruth(0)); got != 0 {
		t.Errorf("FSC with empty truth = %v, want 0", got)
	}
}

func TestSizeARE(t *testing.T) {
	truth := buildTruth(map[flow.Key]uint32{k1: 10, k2: 4})
	tests := []struct {
		name string
		est  map[flow.Key]uint32
		want float64
	}{
		{"exact", map[flow.Key]uint32{k1: 10, k2: 4}, 0},
		{"unknown counts as 1", map[flow.Key]uint32{k1: 10}, 0.5},
		{"20% high on one", map[flow.Key]uint32{k1: 12, k2: 4}, 0.1},
		{"50% low on one", map[flow.Key]uint32{k1: 5, k2: 4}, 0.25},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := SizeARE(func(k flow.Key) uint32 { return tc.est[k] }, truth)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("SizeARE = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCardinalityRE(t *testing.T) {
	truth := buildTruth(map[flow.Key]uint32{k1: 1, k2: 1, k3: 1, k4: 1})
	tests := []struct {
		est  float64
		want float64
	}{
		{4, 0},
		{5, 0.25},
		{3, 0.25},
		{0, 1},
		{8, 1},
	}
	for _, tc := range tests {
		if got := CardinalityRE(tc.est, truth); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CardinalityRE(%v) = %v, want %v", tc.est, got, tc.want)
		}
	}
	if got := CardinalityRE(5, flow.NewTruth(0)); got != 0 {
		t.Errorf("CardinalityRE with empty truth = %v, want 0", got)
	}
}

func TestHeavyHitters(t *testing.T) {
	truth := buildTruth(map[flow.Key]uint32{k1: 100, k2: 50, k3: 10, k4: 1})

	t.Run("perfect detection", func(t *testing.T) {
		rep := HeavyHitters([]flow.Record{
			{Key: k1, Count: 100}, {Key: k2, Count: 50}, {Key: k3, Count: 10}, {Key: k4, Count: 1},
		}, truth, 50)
		if rep.F1 != 1 || rep.Precision != 1 || rep.Recall != 1 {
			t.Errorf("perfect detection scored %+v", rep)
		}
		if rep.SizeARE != 0 {
			t.Errorf("SizeARE = %v, want 0", rep.SizeARE)
		}
		if rep.Reported != 2 || rep.Real != 2 || rep.Correct != 2 {
			t.Errorf("counts = %+v", rep)
		}
	})

	t.Run("false positive", func(t *testing.T) {
		// k3 reported as 60 though it is really 10.
		rep := HeavyHitters([]flow.Record{
			{Key: k1, Count: 100}, {Key: k2, Count: 50}, {Key: k3, Count: 60},
		}, truth, 50)
		if rep.Reported != 3 || rep.Correct != 2 {
			t.Fatalf("counts = %+v", rep)
		}
		wantP := 2.0 / 3.0
		if math.Abs(rep.Precision-wantP) > 1e-12 || rep.Recall != 1 {
			t.Errorf("P=%v R=%v, want %v and 1", rep.Precision, rep.Recall, wantP)
		}
	})

	t.Run("missed detection", func(t *testing.T) {
		rep := HeavyHitters([]flow.Record{{Key: k1, Count: 100}}, truth, 50)
		if rep.Recall != 0.5 || rep.Precision != 1 {
			t.Errorf("P=%v R=%v, want 1 and 0.5", rep.Precision, rep.Recall)
		}
		wantF1 := 2 * 0.5 / 1.5
		if math.Abs(rep.F1-wantF1) > 1e-12 {
			t.Errorf("F1 = %v, want %v", rep.F1, wantF1)
		}
	})

	t.Run("underreported size misses threshold", func(t *testing.T) {
		// k2 is a real HH but reported size 40 < 50, so it is not claimed.
		rep := HeavyHitters([]flow.Record{
			{Key: k1, Count: 100}, {Key: k2, Count: 40},
		}, truth, 50)
		if rep.Reported != 1 || rep.Correct != 1 {
			t.Errorf("counts = %+v", rep)
		}
	})

	t.Run("size ARE over correct detections", func(t *testing.T) {
		rep := HeavyHitters([]flow.Record{
			{Key: k1, Count: 90}, {Key: k2, Count: 55},
		}, truth, 50)
		want := (math.Abs(90.0/100-1) + math.Abs(55.0/50-1)) / 2
		if math.Abs(rep.SizeARE-want) > 1e-12 {
			t.Errorf("SizeARE = %v, want %v", rep.SizeARE, want)
		}
	})

	t.Run("duplicate reports keep largest", func(t *testing.T) {
		rep := HeavyHitters([]flow.Record{
			{Key: k1, Count: 60}, {Key: k1, Count: 90},
		}, truth, 50)
		if rep.Reported != 1 || rep.Correct != 1 {
			t.Errorf("counts = %+v", rep)
		}
		want := math.Abs(90.0/100 - 1)
		if math.Abs(rep.SizeARE-want) > 1e-12 {
			t.Errorf("SizeARE = %v, want %v", rep.SizeARE, want)
		}
	})

	t.Run("nothing reported", func(t *testing.T) {
		rep := HeavyHitters(nil, truth, 50)
		if rep.F1 != 0 || rep.Precision != 0 || rep.Recall != 0 {
			t.Errorf("empty report scored %+v", rep)
		}
	})
}
