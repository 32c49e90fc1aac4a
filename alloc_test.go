package repro

import (
	"io"
	"testing"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/flowmon"
	"repro/internal/keysort"
	"repro/netwide"
	"repro/recordstore"
	"repro/shard"
	"repro/telemetry"
	"repro/topk"
	"repro/trace"
)

// The zero-allocation contract of the export path: once the reusable
// buffers have grown to epoch size, extracting records, encoding epochs
// and merging sorted views must not allocate. These are regression tests —
// a single stray allocation per epoch at line rate is a GC pause waiting
// to happen.

// fillRecorder replays a generated trace into rec through the batched path.
func fillRecorder(t testing.TB, rec flowmon.Recorder, flows int) {
	t.Helper()
	tr, err := trace.Generate(trace.CAIDA, flows, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.Replay(rec, tr.Packets(benchSeed), collector.DefaultBatchSize); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRecordsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	t.Run("HashFlow", func(t *testing.T) {
		rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		fillRecorder(t, rec, benchFlows)
		var buf []flow.Record
		buf = rec.AppendRecords(buf[:0])
		if len(buf) == 0 {
			t.Fatal("no records extracted")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = rec.AppendRecords(buf[:0])
		}); allocs != 0 {
			t.Errorf("HashFlow AppendRecords allocates %.0f times per epoch, want 0", allocs)
		}
	})

	t.Run("Sharded", func(t *testing.T) {
		s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fillRecorder(t, s, benchFlows)
		var buf []flow.Record
		buf = s.AppendRecords(buf[:0])
		if len(buf) == 0 {
			t.Fatal("no records extracted")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = s.AppendRecords(buf[:0])
		}); allocs != 0 {
			t.Errorf("Sharded AppendRecords allocates %.0f times per epoch, want 0", allocs)
		}
	})
}

// TestEpochExportAllocFree covers the full steady-state epoch export —
// AppendRecords into a reused buffer, WriteEpoch sorting and encoding with
// writer-owned scratch — for both the plain and the sharded recorder, and
// the batched ingest that drives rotation under adaptive.Manager.
func TestEpochExportAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	recs := map[string]flowmon.Recorder{}

	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	recs["HashFlow"] = rec

	s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs["Sharded"] = s

	for name, rec := range recs {
		t.Run(name, func(t *testing.T) {
			fillRecorder(t, rec, benchFlows)
			w := recordstore.NewWriter(io.Discard)
			ts := time.Unix(42, 0)
			var buf []flow.Record
			var werr error
			export := func() {
				buf = rec.AppendRecords(buf[:0])
				werr = w.WriteEpoch(ts, buf)
			}
			export() // warm the reusable buffers
			if werr != nil {
				t.Fatal(werr)
			}
			if len(buf) < 1000 {
				t.Fatalf("only %d records, too few to exercise the radix path", len(buf))
			}
			if allocs := testing.AllocsPerRun(50, export); allocs != 0 {
				t.Errorf("epoch export allocates %.0f times per epoch, want 0", allocs)
			}
			if werr != nil {
				t.Fatal(werr)
			}
		})
	}

	t.Run("ManagerUpdateBatch", func(t *testing.T) {
		mcfg := flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed}
		active, err := flowmon.NewHashFlow(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		standby, err := flowmon.NewHashFlow(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		// A budget of 1000 packets is no multiple of the batch size, so
		// about one batch in four is cut by a rotation.
		m, err := adaptive.NewDoubleBuffered(active, standby, adaptive.Config{
			Capacity:        active.MainCells(),
			MaxEpochPackets: 1000,
		}, func(int, []flow.Record) {})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
		if err != nil {
			t.Fatal(err)
		}
		pkts := tr.Packets(benchSeed)
		off := 0
		feed := func() {
			if off+collector.DefaultBatchSize > len(pkts) {
				off = 0
			}
			m.UpdateBatch(pkts[off : off+collector.DefaultBatchSize])
			off += collector.DefaultBatchSize
		}
		for i := 0; i < 100; i++ {
			feed() // grow the drain buffer over several epochs
		}
		epoch := m.Epoch()
		if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
			t.Errorf("Manager.UpdateBatch allocates %.0f times per batch, want 0", allocs)
		}
		if m.Epoch()-epoch < 20 {
			t.Fatalf("only %d rotations during the measured batches", m.Epoch()-epoch)
		}
	})
}

// TestMergeSortedAllocFree pins the zero-allocation contract of the k-way
// merge over key-sorted views with a reused destination buffer.
func TestMergeSortedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	mk := func(seed uint64) []flow.Record {
		rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fillRecorder(t, rec, benchFlows)
		out := rec.Records()
		netwide.SortByKey(out)
		return out
	}
	views := []netwide.View{
		{Name: "sw1", Records: mk(1)},
		{Name: "sw2", Records: mk(2)},
		{Name: "sw3", Records: mk(3)},
	}
	var dst []flow.Record
	dst = netwide.MergeSumInto(dst[:0], views...)
	if len(dst) == 0 {
		t.Fatal("empty merge")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = netwide.MergeSumInto(dst[:0], views...)
	}); allocs != 0 {
		t.Errorf("MergeSumInto allocates %.0f times per merge, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = netwide.MergeMaxInto(dst[:0], views...)
	}); allocs != 0 {
		t.Errorf("MergeMaxInto allocates %.0f times per merge, want 0", allocs)
	}
}

// TestEpochSortAllocFree pins the collector side's radix key sorts:
// netwide.SortByKey over a shuffled epoch once its pooled scratch is warm,
// and a steady-state detect.Observe, which sorts every epoch by key and
// its fan-in view by destination.
func TestEpochSortAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()
	if len(records) < keysort.MinRadixLen {
		t.Fatalf("only %d records, too few to exercise the radix path", len(records))
	}

	buf := make([]flow.Record, len(records))
	sortEpoch := func() {
		copy(buf, records)
		netwide.SortByKey(buf)
	}
	sortEpoch() // warm the pooled scratch
	if allocs := testing.AllocsPerRun(50, sortEpoch); allocs != 0 {
		t.Errorf("SortByKey allocates %.0f times per epoch, want 0", allocs)
	}

	d, err := detect.NewDetector(detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(42, 0)
	epoch := 0
	observe := func() {
		d.Observe(epoch, ts, records)
		epoch++
	}
	// Warm until the change-summary ring has wrapped and recycles slices.
	for epoch < d.Config().ChangeLog+2 {
		observe()
	}
	if allocs := testing.AllocsPerRun(50, observe); allocs != 0 {
		t.Errorf("detect.Observe allocates %.0f times per epoch, want 0", allocs)
	}
}

// TestReadEpochAppendAllocFree pins allocation-free replay: decoding an
// epoch into a reused buffer must not allocate once the buffer has grown.
func TestReadEpochAppendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()

	const epochs = 256
	var stream writableBuffer
	w := recordstore.NewWriter(&stream)
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := recordstore.NewReader(&stream)
	var buf []flow.Record
	// Warm: the first read grows the reader's body buffer and dst.
	ep, err := r.ReadEpochAppend(buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = ep.Records
	if len(buf) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(buf), len(records))
	}
	var rerr error
	if allocs := testing.AllocsPerRun(100, func() {
		ep, rerr = r.ReadEpochAppend(buf[:0])
		buf = ep.Records
	}); allocs != 0 {
		t.Errorf("ReadEpochAppend allocates %.0f times per epoch, want 0", allocs)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestAppendTopKAllocFree pins the zero-allocation contract of the live
// query snapshots: AppendTopK and AppendSorted on a tracker, with reused
// destination buffers. The /topk request path sits directly on these.
func TestAppendTopKAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(benchSeed)

	t.Run("Tracker", func(t *testing.T) {
		tk, err := topk.NewTracker(1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			tk.Add(p.Key, 1)
		}
		var buf []flow.Record
		buf = tk.AppendTopK(buf[:0], 10)
		if len(buf) != 10 {
			t.Fatalf("warm top-k returned %d records", len(buf))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = tk.AppendTopK(buf[:0], 10)
		}); allocs != 0 {
			t.Errorf("Tracker.AppendTopK allocates %.0f times per query, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = tk.AppendSorted(buf[:0])
		}); allocs != 0 {
			t.Errorf("Tracker.AppendSorted allocates %.0f times per query, want 0", allocs)
		}
	})

}

// TestMappedEpochAllocFree pins allocation-free historical reads: random
// epoch access through the mapped store with a reused buffer must not
// allocate once the buffer has grown — the /flows scan loop relies on it.
func TestMappedEpochAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()

	const epochs = 16
	var stream writableBuffer
	w := recordstore.NewWriter(&stream)
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	m, err := recordstore.NewMappedBytes(stream.b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs() != epochs {
		t.Fatalf("indexed %d epochs, want %d", m.Epochs(), epochs)
	}
	var buf []flow.Record
	ep, err := m.AppendEpochAt(0, buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = ep.Records
	if len(buf) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(buf), len(records))
	}
	i := 0
	var rerr error
	if allocs := testing.AllocsPerRun(100, func() {
		ep, rerr = m.AppendEpochAt(i%epochs, buf[:0])
		buf = ep.Records
		i++
	}); allocs != 0 {
		t.Errorf("AppendEpochAt allocates %.0f times per epoch, want 0", allocs)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestSegmentEpochAllocFree pins allocation-free cold reads: once a
// segment's block is inflated and the decoder's key columns have grown,
// scanning it again (diffs replayed from the block's full epoch) with a
// reused buffer must not allocate. The /flows scan loop relies on it for
// every epoch after a block's first.
func TestSegmentEpochAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()
	netwide.SortByKey(records)

	// Each epoch leaves out a different sixteenth of the flows, so every
	// diff has dropped, carried and inserted runs.
	const epochs = 8
	var img writableBuffer
	sw := recordstore.NewSegmentWriter(&img, recordstore.SegmentCold)
	var epoch []flow.Record
	for e := 0; e < epochs; e++ {
		epoch = epoch[:0]
		for i, r := range records {
			if i%16 != e {
				epoch = append(epoch, r)
			}
		}
		if err := sw.Add(recordstore.SegmentEpoch{Time: time.Unix(int64(e), 0), Records: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := recordstore.OpenSegmentBytes(img.b)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	var buf []flow.Record
	var rerr error
	scan := func() {
		for e := 0; e < epochs && rerr == nil; e++ {
			var ep recordstore.Epoch
			ep, rerr = seg.AppendEpochAt(e, buf[:0])
			buf = ep.Records
		}
	}
	scan() // warm: inflate the block, grow the key columns and buf
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(buf) != len(epoch) {
		t.Fatalf("decoded %d records, want %d", len(buf), len(epoch))
	}
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Errorf("a warm segment scan allocates %.0f times per %d epochs, want 0", allocs, epochs)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestTelemetryAllocFree pins the telemetry layer's core promise: the
// instruments themselves never allocate — neither live ones on the
// update path nor the nil receivers every uninstrumented call site
// holds — and a fully instrumented sharded ingest stays exactly as
// allocation-free as a bare one.
func TestTelemetryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	t.Run("Instruments", func(t *testing.T) {
		var (
			c    telemetry.Counter
			g    telemetry.Gauge
			h    telemetry.Histogram
			nilC *telemetry.Counter
			nilH *telemetry.Histogram
		)
		i := uint64(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			c.Inc()
			c.Add(i)
			g.Set(int64(i))
			g.Add(1)
			h.Observe(i)
			nilC.Inc()
			nilH.Observe(i)
			i++
		}); allocs != 0 {
			t.Errorf("instrument updates allocate %.0f times, want 0", allocs)
		}
	})

	t.Run("InstrumentedIngest", func(t *testing.T) {
		s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetMetrics(shard.NewMetrics(telemetry.NewRegistry()))
		tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
		if err != nil {
			t.Fatal(err)
		}
		pkts := tr.Packets(benchSeed)
		batch := pkts[:collector.DefaultBatchSize]
		s.UpdateBatch(batch) // warm the staging pool
		if allocs := testing.AllocsPerRun(100, func() {
			s.UpdateBatch(batch)
		}); allocs != 0 {
			t.Errorf("instrumented UpdateBatch allocates %.0f times per batch, want 0", allocs)
		}
	})
}

// writableBuffer is a minimal in-memory stream: bytes written are later
// read back. Unlike bytes.Buffer it never shrinks or re-slices on read, so
// reads do not allocate.
type writableBuffer struct {
	b   []byte
	off int
}

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writableBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.off:])
	w.off += n
	return n, nil
}
