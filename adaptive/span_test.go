package adaptive

import (
	"sync"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

// TestSpanHook verifies the drain worker delivers one StageSpan per epoch
// with the stages that ran actually timed, without metrics attached.
func TestSpanHook(t *testing.T) {
	cfg := flowmon.Config{MemoryBytes: 19 * 1024, Seed: 5}
	active, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flushed int
	m, err := NewDoubleBuffered(active, standby,
		Config{Capacity: active.MainCells(), CheckEvery: 128},
		func(epoch int, records []flow.Record) { flushed++ })
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		spans []StageSpan
	)
	m.SetSpanHook(func(sp StageSpan) {
		mu.Lock()
		spans = append(spans, sp)
		mu.Unlock()
	})

	tr, err := trace.Generate(trace.Campus, 15000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets(9) {
		m.Update(p)
	}
	m.Flush()
	m.Close() // drains the worker, so spans is complete

	mu.Lock()
	defer mu.Unlock()
	if len(spans) < 2 {
		t.Fatalf("got %d spans, want multiple epochs", len(spans))
	}
	if len(spans) != flushed {
		t.Fatalf("%d spans for %d flushed epochs", len(spans), flushed)
	}
	for i, sp := range spans {
		if sp.Epoch != i {
			t.Errorf("span %d: epoch = %d", i, sp.Epoch)
		}
		if sp.Records <= 0 {
			t.Errorf("span %d: records = %d, want > 0", i, sp.Records)
		}
		if sp.ExtractNs <= 0 || sp.FlushNs < 0 || sp.ResetNs <= 0 {
			t.Errorf("span %d: timings %+v", i, sp)
		}
		if sp.DetectNs != 0 {
			t.Errorf("span %d: detect timed with no observers: %+v", i, sp)
		}
	}
}

// TestSpanHookFirstWins matches the SetDrainErrorHook contract.
func TestSpanHookFirstWins(t *testing.T) {
	rec, err := flowmon.NewHashFlow(flowmon.Config{MemoryBytes: 19 * 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	standby, err := flowmon.NewHashFlow(flowmon.Config{MemoryBytes: 19 * 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDoubleBuffered(rec, standby, Config{Capacity: rec.MainCells()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	first := func(StageSpan) {}
	m.SetSpanHook(first)
	m.SetSpanHook(func(StageSpan) { t.Fatal("second hook installed") })
	if m.spanHook == nil {
		t.Fatal("no hook installed")
	}
}
