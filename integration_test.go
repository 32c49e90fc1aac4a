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

// TestPipelineIPFIX repeats the export hop with the IPFIX codec.
func TestPipelineIPFIX(t *testing.T) {
	tr, err := trace.Generate(trace.ISP2, 2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 128 << 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stream(23)
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		rec.Update(p)
	}

	records := rec.Records()
	ipfixRecs := make([]netflow.IPFIXRecord, 0, len(records))
	for _, r := range records {
		ipfixRecs = append(ipfixRecs, netflow.IPFIXRecord{Key: r.Key, Packets: uint64(r.Count)})
	}

	var wire [][]byte
	exp := netflow.NewIPFIXExporter(func(b []byte) error {
		cp := make([]byte, len(b))
		copy(cp, b)
		wire = append(wire, cp)
		return nil
	}, 99)
	if err := exp.Export(ipfixRecs); err != nil {
		t.Fatal(err)
	}

	dec := netflow.NewIPFIXDecoder()
	var got []netflow.IPFIXRecord
	for _, m := range wire {
		rs, err := dec.Decode(m)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if len(got) != len(ipfixRecs) {
		t.Fatalf("IPFIX round trip: %d records, want %d", len(got), len(ipfixRecs))
	}
	for i := range got {
		if got[i] != ipfixRecs[i] {
			t.Fatalf("IPFIX record %d mismatch", i)
		}
	}
}

// TestNetworkWideFlowRadarDecode replays the FlowRadar paper's NetDecode
// deployment: a small edge switch over its standalone decode capacity is
// rescued by the records a better-provisioned core switch on the same path
// decoded, then both views merge into one network-wide record set.
func TestNetworkWideFlowRadarDecode(t *testing.T) {
	edge, err := flowmon.NewFlowRadar(flowmon.Config{MemoryBytes: 26 * 1024, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	core, err := flowmon.NewFlowRadar(flowmon.Config{MemoryBytes: 26 * 16384, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := trace.Generate(trace.ISP1, 3000, 53) // ~3x edge capacity
	if err != nil {
		t.Fatal(err)
	}
	truth := tr.Truth()
	for _, p := range tr.Packets(53) {
		edge.Update(p)
		core.Update(p)
	}

	if solo := len(edge.Records()); solo > truth.Flows()/2 {
		t.Fatalf("edge decoded %d flows standalone; overload assumption broken", solo)
	}
	rescued, ok := edge.DecodeWithHints(core.Records())
	if !ok {
		t.Fatal("NetDecode with core hints did not complete")
	}
	merged := netwide.MergeMax(
		netwide.View{Name: "edge", Records: rescued},
		netwide.View{Name: "core", Records: core.Records()},
	)
	if len(merged) != truth.Flows() {
		t.Fatalf("merged view has %d flows, want %d", len(merged), truth.Flows())
	}
	for _, r := range merged {
		if truth.Count(r.Key) != r.Count {
			t.Fatalf("merged flow %v count %d, want %d", r.Key, r.Count, truth.Count(r.Key))
		}
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
