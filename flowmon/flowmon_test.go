package flowmon

import (
	"testing"

	"repro/flow"
	"repro/metrics"
	"repro/trace"
)

func TestParseAlgorithm(t *testing.T) {
	for _, a := range All() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("NetFlow"); err == nil {
		t.Error("ParseAlgorithm accepted unknown name")
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Errorf("unknown algorithm String() = %q", got)
	}
}

func TestNewUnknownAlgorithm(t *testing.T) {
	if _, err := New(Algorithm(0), Config{MemoryBytes: 1 << 16}); err == nil {
		t.Error("New accepted unknown algorithm")
	}
}

func TestNewAllAlgorithms(t *testing.T) {
	for _, a := range All() {
		t.Run(a.String(), func(t *testing.T) {
			rec, err := New(a, Config{MemoryBytes: 1 << 18, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			k := flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
			for i := 0; i < 42; i++ {
				rec.Update(flow.Packet{Key: k})
			}
			if got := rec.EstimateSize(k); got != 42 {
				t.Errorf("EstimateSize = %d, want 42", got)
			}
			if got := rec.OpStats().Packets; got != 42 {
				t.Errorf("OpStats.Packets = %d, want 42", got)
			}
			if rec.MemoryBytes() <= 0 || rec.MemoryBytes() > 1<<18 {
				t.Errorf("MemoryBytes = %d, want in (0, budget]", rec.MemoryBytes())
			}
			recs := rec.Records()
			if len(recs) != 1 || recs[0].Key != k {
				t.Errorf("Records = %v", recs)
			}
			rec.Reset()
			if len(rec.Records()) != 0 {
				t.Error("Reset left records")
			}
		})
	}
}

func TestNewPropagatesConfigErrors(t *testing.T) {
	for _, a := range All() {
		if _, err := New(a, Config{MemoryBytes: -1}); err == nil {
			t.Errorf("%v accepted negative memory", a)
		}
	}
}

func TestNewHashFlowConcrete(t *testing.T) {
	h, err := NewHashFlow(Config{MemoryBytes: 19 * 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.MainCells() != 1000 {
		t.Errorf("MainCells = %d, want 1000", h.MainCells())
	}
	if got := len(h.TableSizes()); got != 3 {
		t.Errorf("TableSizes = %d entries, want 3", got)
	}
}

// TestPaperHeadlineShape replays the paper's central comparison at reduced
// scale: with a fixed memory budget and an offered load far beyond capacity,
// HashFlow must (a) fill nearly its whole main table with accurate records,
// (b) beat HashPipe and ElasticSketch on FSC, and (c) beat all baselines on
// size-estimation ARE, while FlowRadar's decode collapses.
func TestPaperHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison skipped in -short mode")
	}
	// The Campus profile is where the paper's FSC claim against HashPipe
	// holds (elephant flows make HashPipe fragment); on mice-dominated
	// traces the two are nearly tied.
	const memory = 256 << 10 // 256 KB → ~13.8K HashFlow main cells
	const flows = 22000      // ~1.6x overload, matching Fig. 8's regime

	tr, err := trace.Generate(trace.Campus, flows, 42)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(42)
	truth := tr.Truth()

	fsc := make(map[Algorithm]float64)
	are := make(map[Algorithm]float64)
	for _, a := range All() {
		rec, err := New(a, Config{MemoryBytes: memory, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			rec.Update(p)
		}
		fsc[a] = metrics.FSC(rec.Records(), truth)
		are[a] = metrics.SizeARE(rec.EstimateSize, truth)
	}
	t.Logf("FSC: %v", fsc)
	t.Logf("ARE: %v", are)

	// (a) HashFlow fills its main table: FSC ≈ mainCells/flows.
	h, err := NewHashFlow(Config{MemoryBytes: memory, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantFSC := float64(h.MainCells()) / flows
	if fsc[AlgorithmHashFlow] < 0.9*wantFSC {
		t.Errorf("HashFlow FSC %.4f, want >= 90%% of full-table %.4f", fsc[AlgorithmHashFlow], wantFSC)
	}
	// (b) FSC ordering.
	if fsc[AlgorithmHashFlow] <= fsc[AlgorithmHashPipe] {
		t.Errorf("HashFlow FSC %.4f not above HashPipe %.4f", fsc[AlgorithmHashFlow], fsc[AlgorithmHashPipe])
	}
	if fsc[AlgorithmHashFlow] <= fsc[AlgorithmElasticSketch] {
		t.Errorf("HashFlow FSC %.4f not above ElasticSketch %.4f", fsc[AlgorithmHashFlow], fsc[AlgorithmElasticSketch])
	}
	// (c) ARE ordering: HashFlow lowest.
	for _, a := range []Algorithm{AlgorithmHashPipe, AlgorithmElasticSketch, AlgorithmFlowRadar} {
		if are[AlgorithmHashFlow] >= are[a] {
			t.Errorf("HashFlow ARE %.4f not below %v ARE %.4f", are[AlgorithmHashFlow], a, are[a])
		}
	}
	// FlowRadar collapse: it decodes almost nothing at this overload
	// (~10K cells for 22K flows).
	if fsc[AlgorithmFlowRadar] > 0.1 {
		t.Errorf("FlowRadar FSC %.4f, expected decode collapse < 0.1", fsc[AlgorithmFlowRadar])
	}
	// Cardinality: HashPipe badly undercounts while the others stay close
	// (Fig. 7's shape).
	for _, a := range []Algorithm{AlgorithmHashFlow, AlgorithmElasticSketch, AlgorithmFlowRadar} {
		rec, err := New(a, Config{MemoryBytes: memory, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			rec.Update(p)
		}
		if re := metrics.CardinalityRE(rec.EstimateCardinality(), truth); re > 0.2 {
			t.Errorf("%v cardinality RE = %.3f, want < 0.2", a, re)
		}
	}
}

// TestFlowRadarSmallLoadWins checks the paper's one exception: at very small
// flow counts FlowRadar decodes everything and has the highest coverage.
func TestFlowRadarSmallLoadWins(t *testing.T) {
	const memory = 128 << 10
	const flows = 2000 // well under FlowRadar's ~5K cells at this budget

	tr, err := trace.Generate(trace.CAIDA, flows, 43)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(43)
	truth := tr.Truth()

	rec, err := New(AlgorithmFlowRadar, Config{MemoryBytes: memory, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		rec.Update(p)
	}
	if got := metrics.FSC(rec.Records(), truth); got < 0.999 {
		t.Errorf("FlowRadar small-load FSC = %.4f, want ~1", got)
	}
	if got := metrics.SizeARE(rec.EstimateSize, truth); got > 0.001 {
		t.Errorf("FlowRadar small-load ARE = %.4f, want ~0", got)
	}
}
