package adaptive

import (
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

func newRecorder(t *testing.T, mem int) flowmon.Recorder {
	t.Helper()
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: mem, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// hashFlowPair builds the two identically configured halves of a manager
// and reports their main-table capacity.
func hashFlowPair(t *testing.T, cfg flowmon.Config) (active, standby flowmon.Recorder, cells int) {
	t.Helper()
	a, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, a.MainCells()
}

func TestValidation(t *testing.T) {
	rec, standby := newRecorder(t, 1<<14), newRecorder(t, 1<<14)
	if _, err := NewDoubleBuffered(nil, standby, Config{Capacity: 10}, nil); err == nil {
		t.Error("accepted nil recorder")
	}
	if _, err := NewDoubleBuffered(rec, standby, Config{}, nil); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := NewDoubleBuffered(rec, standby, Config{Capacity: 10, HighWatermark: 1.5}, nil); err == nil {
		t.Error("accepted watermark > 1")
	}
}

func TestFlushesOnSaturation(t *testing.T) {
	// 19*512 bytes → 512 main cells; offer far more flows than capacity so
	// the watermark must trip and create multiple epochs.
	active, standby, cells := hashFlowPair(t, flowmon.Config{MemoryBytes: 19 * 512, Seed: 2})
	var flushes []int
	m, err := NewDoubleBuffered(active, standby, Config{
		Capacity:   cells,
		CheckEvery: 64,
	}, func(epoch int, records []flow.Record) {
		flushes = append(flushes, len(records))
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Generate(trace.ISP2, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets(3) {
		m.Update(p)
	}
	m.Close() // waits for the worker, so flushes is complete
	if len(flushes) < 2 {
		t.Fatalf("expected multiple saturation flushes, got %d", len(flushes))
	}
	for i, n := range flushes {
		// Each flushed epoch should have filled a large fraction of the
		// table but never exceed its capacity.
		if n > cells {
			t.Errorf("epoch %d flushed %d records, above capacity %d", i, n, cells)
		}
		if n < cells/2 {
			t.Errorf("epoch %d flushed only %d records for capacity %d", i, n, cells)
		}
	}
	if m.TotalPackets() != tr.PacketCount() {
		t.Errorf("TotalPackets = %d, want %d", m.TotalPackets(), tr.PacketCount())
	}
}

func TestFlushesOnPacketBudget(t *testing.T) {
	// Huge recorders: the watermark never trips.
	epochs := 0
	m, err := NewDoubleBuffered(newRecorder(t, 1<<20), newRecorder(t, 1<<20), Config{
		Capacity:        1 << 20,
		MaxEpochPackets: 1000,
	}, func(int, []flow.Record) { epochs++ })
	if err != nil {
		t.Fatal(err)
	}
	k := flow.Key{SrcIP: 1}
	for i := 0; i < 3500; i++ {
		m.Update(flow.Packet{Key: k})
	}
	m.Close()
	if epochs != 3 {
		t.Errorf("epochs = %d, want 3 (3500 packets / 1000 budget)", epochs)
	}
	if m.EpochPackets() != 500 {
		t.Errorf("EpochPackets = %d, want 500", m.EpochPackets())
	}
}

func TestManualFlush(t *testing.T) {
	var got []flow.Record
	m, err := NewDoubleBuffered(newRecorder(t, 1<<14), newRecorder(t, 1<<14), Config{Capacity: 1000},
		func(epoch int, records []flow.Record) {
			if epoch == 0 {
				got = append([]flow.Record(nil), records...)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 7}})
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 7}})
	m.Flush()
	if m.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", m.Epoch())
	}
	// The second rotation hands epoch 0's recorder back as the live one,
	// which the worker must have reset.
	m.Flush()
	if len(m.rec.Records()) != 0 {
		t.Error("recorder not reset after flush")
	}
	m.Close()
	if len(got) != 1 || got[0].Count != 2 {
		t.Errorf("flushed records = %v", got)
	}
}

func TestNilFlushFunc(t *testing.T) {
	m, err := NewDoubleBuffered(newRecorder(t, 1<<14), newRecorder(t, 1<<14), Config{Capacity: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 1}})
	m.Flush() // must not panic
	if m.Epoch() != 1 {
		t.Errorf("Epoch = %d", m.Epoch())
	}
}

func TestAccuracyPreservedAcrossEpochs(t *testing.T) {
	// With adaptive flushing, each epoch's records stay accurate even
	// though total offered flows far exceed capacity. Collect all epochs
	// and verify every reported count is exact (HashFlow main-table
	// records are exact under DisablePromotion-free operation when no
	// digest collision promotes a wrong count; tolerate a tiny fraction).
	active, standby, cells := hashFlowPair(t, flowmon.Config{MemoryBytes: 19 * 1024, Seed: 5})
	tr, err := trace.Generate(trace.Campus, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.Truth()

	exact, total := 0, 0
	m, err := NewDoubleBuffered(active, standby, Config{Capacity: cells, CheckEvery: 128},
		func(_ int, records []flow.Record) {
			for _, r := range records {
				total++
				if truth.Count(r.Key) >= r.Count {
					exact++
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets(7) {
		m.Update(p)
	}
	m.Flush()
	m.Close()
	if total == 0 {
		t.Fatal("no records flushed")
	}
	if frac := float64(exact) / float64(total); frac < 0.99 {
		t.Errorf("only %.2f%% of flushed records within truth", frac*100)
	}
}
