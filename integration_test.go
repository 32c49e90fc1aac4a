package repro

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/adaptive"
	"repro/apps"
	"repro/flow"
	"repro/flowmon"
	"repro/metrics"
	"repro/netflow"
	"repro/netwide"
	"repro/pcapio"
	"repro/shard"
	"repro/trace"
)

// TestPipelinePcapToCollector exercises the full data path end to end:
// synthetic trace → pcap encode → pcap decode → HashFlow recorder →
// NetFlow v5 export → collector → analysis applications, verifying counts
// survive every hop.
func TestPipelinePcapToCollector(t *testing.T) {
	tr, err := trace.Generate(trace.ISP1, 4000, 21)
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.Truth()

	// Trace → pcap.
	var pcapBuf bytes.Buffer
	w := pcapio.NewWriter(&pcapBuf)
	s := tr.Stream(21)
	ts := time.Unix(1700000000, 0)
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		if err := w.WritePacket(p, ts); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Microsecond)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// pcap → recorder.
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 256 << 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := pcapio.NewReader(bytes.NewReader(pcapBuf.Bytes()))
	pkts := 0
	for {
		p, _, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Update(p)
		pkts++
	}
	if uint64(pkts) != tr.PacketCount() {
		t.Fatalf("pcap carried %d packets, trace has %d", pkts, tr.PacketCount())
	}

	// Recorder → NetFlow v5 → collector.
	var wire [][]byte
	exp := netflow.NewExporter(func(b []byte) error {
		cp := make([]byte, len(b))
		copy(cp, b)
		wire = append(wire, cp)
		return nil
	})
	records := rec.Records()
	if err := exp.Export(records, 700); err != nil {
		t.Fatal(err)
	}
	col := netflow.NewCollector()
	for _, d := range wire {
		if err := col.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	collected := col.FlowRecords()
	if len(collected) != len(records) {
		t.Fatalf("collector got %d records, exporter sent %d", len(collected), len(records))
	}

	// Collected records must score identically to the recorder's own.
	if got, want := metrics.FSC(collected, truth), metrics.FSC(records, truth); got != want {
		t.Errorf("FSC after export %v, before %v", got, want)
	}
	if fsc := metrics.FSC(collected, truth); fsc < 0.9 {
		t.Errorf("end-to-end FSC = %.3f, want > 0.9 at this load", fsc)
	}

	// Applications run on collected records.
	top := apps.TopTalkers(collected, 10)
	if len(top) != 10 {
		t.Fatalf("TopTalkers returned %d", len(top))
	}
	if truth.Count(top[0].Key) == 0 {
		t.Error("top talker is not a real flow")
	}
}

// TestPipelineShardedAdaptiveNetwide composes the extension layers: a
// sharded HashFlow pair under the double-buffered adaptive epoch manager,
// with the watermark driving rotation end to end and the epochs merged
// into a network-wide view.
func TestPipelineShardedAdaptiveNetwide(t *testing.T) {
	var halves [2]*shard.Sharded
	for i := range halves {
		sh, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: 19 * 2048, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		halves[i] = sh
	}
	var views []netwide.View
	mgr, err := adaptive.NewDoubleBuffered(halves[0], halves[1], adaptive.Config{
		Capacity:   2048,
		CheckEvery: 256,
	}, func(epoch int, records []flow.Record) {
		// The flush buffer is reused for the next epoch; retaining a view
		// of it requires a copy.
		views = append(views, netwide.View{Name: "epoch",
			Records: append([]flow.Record(nil), records...)})
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Generate(trace.Campus, 10000, 25)
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.Truth()
	for _, p := range tr.Packets(25) {
		mgr.Update(p)
	}
	mgr.Flush()
	mgr.Close() // waits for the drain worker, so views is complete

	if len(views) < 2 {
		t.Fatalf("expected multiple adaptive epochs, got %d", len(views))
	}
	merged := netwide.MergeMax(views...)
	fsc := metrics.FSC(merged, truth)
	if fsc < 0.9 {
		t.Errorf("merged epoch FSC = %.3f, want > 0.9 (adaptive flushing should prevent loss)", fsc)
	}
}
