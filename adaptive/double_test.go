package adaptive

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

// TestDoubleBufferedEquivalence verifies the manager reports exactly the
// epochs a one-recorder oracle reports on the same packet stream: same
// boundaries, same record sets, under both the watermark and the packet
// budget rule.
func TestDoubleBufferedEquivalence(t *testing.T) {
	cfg := flowmon.Config{MemoryBytes: 19 * 1024, Seed: 5}
	tr, err := trace.Generate(trace.Campus, 15000, 9)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(9)

	for _, tc := range []struct {
		name string
		acfg func(cells int) Config
	}{
		{"watermark", func(cells int) Config { return Config{Capacity: cells, CheckEvery: 128} }},
		{"budget", func(cells int) Config { return Config{Capacity: 1 << 20, MaxEpochPackets: 20000} }},
	} {
		active, standby, cells := hashFlowPair(t, cfg)
		acfg := tc.acfg(cells)
		var got [][]flow.Record
		m, err := NewDoubleBuffered(active, standby, acfg, func(epoch int, records []flow.Record) {
			got = append(got, sortedCopy(records))
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			m.Update(p)
		}
		m.Flush()
		m.Close() // waits for the worker, so got is complete and safe to read

		oracle, _, _ := hashFlowPair(t, cfg)
		want := oracleEpochs(oracle, acfg, pkts)
		if len(want) < 2 {
			t.Fatalf("%s: expected multiple epochs, got %d", tc.name, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: manager produced %d epochs, oracle %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: epoch %d diverges: %d records vs oracle %d", tc.name, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// oracleEpochs replays pkts through one recorder with the manager's epoch
// boundary rule written out: an epoch ends when its packet budget is spent
// or, every CheckEvery packets, when the cardinality estimate reaches the
// watermark. Each epoch is read with Records and then Reset; the trailing
// partial epoch is reported too, like a final Flush.
func oracleEpochs(rec flowmon.Recorder, cfg Config, pkts []flow.Packet) [][]flow.Record {
	cfg = cfg.withDefaults()
	var out [][]flow.Record
	var inEp, checks uint64
	end := func() {
		out = append(out, sortedCopy(rec.Records()))
		rec.Reset()
		inEp, checks = 0, 0
	}
	for _, p := range pkts {
		rec.Update(p)
		inEp++
		checks++
		if inEp >= cfg.MaxEpochPackets {
			end()
			continue
		}
		if checks >= cfg.CheckEvery {
			checks = 0
			if rec.EstimateCardinality() >= cfg.HighWatermark*float64(cfg.Capacity) {
				end()
			}
		}
	}
	end()
	return out
}

// sortedCopy returns records copied out of a manager-owned buffer, in
// packed-key order.
func sortedCopy(records []flow.Record) []flow.Record {
	out := slices.Clone(records)
	slices.SortFunc(out, func(a, b flow.Record) int { return flow.CompareKeys(a.Key, b.Key) })
	return out
}

// TestDoubleBufferedFlushOffHotPath verifies rotation hands the full
// recorder off and ingestion continues into the standby: a slow flush
// callback must not block the packets that follow a rotation (until the
// next rotation needs the standby back).
func TestDoubleBufferedFlushOffHotPath(t *testing.T) {
	cfg := flowmon.Config{MemoryBytes: 1 << 14, Seed: 1}
	active, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inFlush atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	m, err := NewDoubleBuffered(active, standby, Config{
		Capacity:        1 << 20,
		MaxEpochPackets: 1000,
	}, func(int, []flow.Record) {
		inFlush.Store(true)
		close(started)
		<-release
		inFlush.Store(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	k := flow.Key{SrcIP: 1}
	// 1000 packets trip the rotation; the flush callback then stalls.
	for i := 0; i < 1000; i++ {
		m.Update(flow.Packet{Key: k})
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("flush callback never started")
	}
	// Ingestion must proceed while the callback is stalled.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			m.Update(flow.Packet{Key: k})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingestion blocked behind the flush callback")
	}
	if !inFlush.Load() {
		t.Error("flush finished before ingestion resumed — epoch drain was on the hot path")
	}
	if m.EpochPackets() != 500 {
		t.Errorf("EpochPackets = %d, want 500", m.EpochPackets())
	}
}

// TestDoubleBufferedValidation covers constructor error paths and Close
// idempotence.
func TestDoubleBufferedValidation(t *testing.T) {
	cfg := flowmon.Config{MemoryBytes: 1 << 14, Seed: 1}
	rec, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDoubleBuffered(rec, nil, Config{Capacity: 10}, nil); err == nil {
		t.Error("accepted nil standby")
	}
	standby, err := flowmon.NewHashFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDoubleBuffered(nil, standby, Config{Capacity: 10}, nil); err == nil {
		t.Error("accepted nil active recorder")
	}
	m, err := NewDoubleBuffered(rec, standby, Config{Capacity: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 1}})
	m.Flush()
	m.Close()
	m.Close() // idempotent
	if m.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", m.Epoch())
	}
	// After Close the manager keeps working, draining on this goroutine.
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 2}})
	m.Flush()
	if m.Epoch() != 2 {
		t.Errorf("Epoch after post-Close flush = %d, want 2", m.Epoch())
	}
}
