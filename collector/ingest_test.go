package collector

import (
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/shard"
	"repro/trace"
)

// captureRecorder records the batch boundaries it is fed.
type captureRecorder struct {
	batches []int
	packets []flow.Packet
}

func (c *captureRecorder) UpdateBatch(pkts []flow.Packet) {
	c.batches = append(c.batches, len(pkts))
	c.packets = append(c.packets, pkts...)
}

func ingestTrace(t *testing.T, flows int, seed uint64) []flow.Packet {
	t.Helper()
	tr, err := trace.Generate(trace.ISP1, flows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Packets(seed)
}

func TestIngestorValidation(t *testing.T) {
	if _, err := NewIngestor(nil, 8); err == nil {
		t.Error("accepted nil recorder")
	}
	g, err := NewIngestor(&captureRecorder{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap(g.buf) != DefaultBatchSize {
		t.Errorf("default batch size = %d, want %d", cap(g.buf), DefaultBatchSize)
	}
}

func TestIngestorBatchBoundaries(t *testing.T) {
	rec := &captureRecorder{}
	g, err := NewIngestor(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	pkts := ingestTrace(t, 100, 3)[:10]
	for _, p := range pkts {
		g.Add(p)
	}
	g.Flush()
	g.Flush() // empty flush is a no-op

	wantBatches := []int{4, 4, 2}
	if len(rec.batches) != len(wantBatches) {
		t.Fatalf("batches = %v, want %v", rec.batches, wantBatches)
	}
	for i, n := range wantBatches {
		if rec.batches[i] != n {
			t.Fatalf("batches = %v, want %v", rec.batches, wantBatches)
		}
	}
	if g.Packets() != 10 {
		t.Errorf("Packets = %d, want 10", g.Packets())
	}
	for i := range pkts {
		if rec.packets[i] != pkts[i] {
			t.Fatalf("packet %d reordered", i)
		}
	}
}

func TestIngestorAddBatchCrossesBoundaries(t *testing.T) {
	rec := &captureRecorder{}
	g, err := NewIngestor(rec, 16)
	if err != nil {
		t.Fatal(err)
	}
	pkts := ingestTrace(t, 500, 5)
	g.AddBatch(pkts[:7])    // partial
	g.AddBatch(pkts[7:100]) // crosses several boundaries
	g.AddBatch(pkts[100:])
	g.Flush()

	if g.Packets() != uint64(len(pkts)) {
		t.Fatalf("delivered %d packets, want %d", g.Packets(), len(pkts))
	}
	for i := range pkts {
		if rec.packets[i] != pkts[i] {
			t.Fatalf("packet %d reordered", i)
		}
	}
}

// TestReplayEquivalence drives the full pipeline — Ingestor batching into
// a sharded recorder — and checks the result is identical to per-packet
// updates on an unsharded recorder fleet with the same layout.
func TestReplayEquivalence(t *testing.T) {
	pkts := ingestTrace(t, 4000, 9)
	cfg := flowmon.Config{MemoryBytes: 256 << 10, Seed: 1}

	batched, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(batched.Close)
	sequential, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sequential.Close)

	if err := Replay(batched, pkts, 128); err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		sequential.Update(p)
	}

	if b, s := batched.OpStats(), sequential.OpStats(); b != s {
		t.Errorf("OpStats diverge: batched %+v, sequential %+v", b, s)
	}
	if b, s := batched.EstimateCardinality(), sequential.EstimateCardinality(); b != s {
		t.Errorf("cardinality diverges: batched %v, sequential %v", b, s)
	}
	if b, s := len(batched.Records()), len(sequential.Records()); b != s {
		t.Errorf("record counts diverge: batched %d, sequential %d", b, s)
	}
}
