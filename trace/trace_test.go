package trace

import (
	"math"
	"testing"

	"repro/flow"
)

func mustGenerate(t *testing.T, p Profile, flows int, seed uint64) *Trace {
	t.Helper()
	tr, err := Generate(p, flows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(CAIDA, 0, 1); err == nil {
		t.Error("accepted zero flows")
	}
	if _, err := Generate(Profile{Name: "bad", S: -1, MeanPkts: 2}, 10, 1); err == nil {
		t.Error("accepted negative exponent")
	}
	if _, err := Generate(Profile{Name: "bad", S: 1, MeanPkts: 0.5}, 10, 1); err == nil {
		t.Error("accepted mean below 1")
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ProfileByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("ProfileByName(%q) = %v, %v", p.Name, got, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("ProfileByName accepted unknown name")
	}
}

func TestMeanCalibration(t *testing.T) {
	// The generated mean flow size must match Table I within 5%.
	for _, p := range Profiles() {
		tr := mustGenerate(t, p, 50000, 42)
		st := ComputeStats(tr)
		if math.Abs(st.MeanSize/p.MeanPkts-1) > 0.05 {
			t.Errorf("%s: mean size %.2f, want %.2f +- 5%%", p.Name, st.MeanSize, p.MeanPkts)
		}
	}
}

func TestSkewShapes(t *testing.T) {
	// At the paper's 250K-flow scale, check the qualitative skew claims:
	// Campus has 7.7% of flows carrying >85% of packets; ISP2 has >99% of
	// flows below 5 packets; max/mean ratios are within the right order of
	// magnitude of Table I.
	campus := mustGenerate(t, Campus, 250000, 7)
	if st := ComputeStats(campus); st.Skew < 0.80 {
		t.Errorf("Campus skew = %.3f, want > 0.80", st.Skew)
	}
	isp2 := mustGenerate(t, ISP2, 250000, 7)
	if frac := FracBelow(isp2, 5); frac < 0.99 {
		t.Errorf("ISP2 FracBelow(5) = %.4f, want > 0.99", frac)
	}
	wantMax := map[string]float64{"CAIDA": 110900, "Campus": 289877, "ISP1": 84357, "ISP2": 2441}
	for _, p := range Profiles() {
		tr := mustGenerate(t, p, 250000, 7)
		st := ComputeStats(tr)
		ratio := float64(st.MaxSize) / wantMax[p.Name]
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s: max flow %d vs paper %v (ratio %.2f), want within 4x",
				p.Name, st.MaxSize, wantMax[p.Name], ratio)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustGenerate(t, CAIDA, 1000, 5)
	b := mustGenerate(t, CAIDA, 1000, 5)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("different flow counts for same seed")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs between same-seed traces", i)
		}
	}
	pa := a.Packets(9)
	pb := b.Packets(9)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("packet %d differs between same-seed streams", i)
		}
	}
}

func TestDistinctKeys(t *testing.T) {
	tr := mustGenerate(t, ISP1, 5000, 11)
	seen := make(map[flow.Key]struct{}, len(tr.Flows))
	for _, f := range tr.Flows {
		if _, dup := seen[f.Key]; dup {
			t.Fatalf("duplicate flow key %v", f.Key)
		}
		seen[f.Key] = struct{}{}
		if f.Count < 1 {
			t.Fatalf("flow with count %d", f.Count)
		}
	}
}

func TestPacketsMatchFlowCounts(t *testing.T) {
	tr := mustGenerate(t, Campus, 500, 13)
	pkts := tr.Packets(1)
	if uint64(len(pkts)) != tr.PacketCount() {
		t.Fatalf("stream has %d packets, trace says %d", len(pkts), tr.PacketCount())
	}
	counts := make(map[flow.Key]uint32)
	for _, p := range pkts {
		counts[p.Key]++
	}
	for _, f := range tr.Flows {
		if counts[f.Key] != f.Count {
			t.Errorf("flow %v: stream count %d, want %d", f.Key, counts[f.Key], f.Count)
		}
	}
}

func TestStreamMatchesFlowCounts(t *testing.T) {
	tr := mustGenerate(t, ISP1, 400, 17)
	s := tr.Stream(3)
	counts := make(map[flow.Key]uint32)
	n := uint64(0)
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		counts[p.Key]++
		n++
	}
	if n != tr.PacketCount() {
		t.Fatalf("stream yielded %d packets, want %d", n, tr.PacketCount())
	}
	if s.Remaining() != 0 {
		t.Errorf("Remaining = %d after drain", s.Remaining())
	}
	for _, f := range tr.Flows {
		if counts[f.Key] != f.Count {
			t.Errorf("flow %v: stream count %d, want %d", f.Key, counts[f.Key], f.Count)
		}
	}
}

func TestTruthMatchesTrace(t *testing.T) {
	tr := mustGenerate(t, ISP2, 300, 19)
	truth := tr.Truth()
	if truth.Flows() != tr.FlowCount() {
		t.Errorf("truth flows %d, trace %d", truth.Flows(), tr.FlowCount())
	}
	if truth.Packets() != tr.PacketCount() {
		t.Errorf("truth packets %d, trace %d", truth.Packets(), tr.PacketCount())
	}
	for _, f := range tr.Flows {
		if truth.Count(f.Key) != f.Count {
			t.Errorf("flow %v truth count %d, want %d", f.Key, truth.Count(f.Key), f.Count)
		}
	}
}

func TestSizeCDF(t *testing.T) {
	tr := mustGenerate(t, CAIDA, 10000, 23)
	cdf := SizeCDF(tr)
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	last := cdf[len(cdf)-1]
	if last.CumFrac != 1.0 {
		t.Errorf("CDF does not reach 1: %v", last.CumFrac)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Size <= cdf[i-1].Size || cdf[i].CumFrac < cdf[i-1].CumFrac {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	// Heavy-tailed: the majority of flows are small.
	if cdf[0].Size != 1 {
		t.Errorf("smallest flow size = %d, want 1", cdf[0].Size)
	}
}

func TestZipfSizesMonotone(t *testing.T) {
	sizes := zipfSizes(1000, 1.0, 10)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("sizes not non-increasing at %d", i)
		}
	}
	if sizes[len(sizes)-1] < 1 {
		t.Error("smallest size below 1")
	}
}

func TestStatsEmpty(t *testing.T) {
	st := ComputeStats(&Trace{Profile: CAIDA})
	if st.Flows != 0 || st.Packets != 0 {
		t.Error("empty trace stats not zero")
	}
	if SizeCDF(&Trace{}) != nil {
		t.Error("empty trace CDF not nil")
	}
}
