package recordstore

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/flow"
)

func BenchmarkWriteEpoch(b *testing.B) {
	recs := randRecords(rand.New(rand.NewPCG(1, 2)), 10000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.WriteEpoch(time.Unix(0, 0), recs); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

func BenchmarkReadEpoch(b *testing.B) {
	recs := randRecords(rand.New(rand.NewPCG(3, 4)), 10000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEpoch(time.Unix(0, 0), recs); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(encoded))
		if _, err := r.ReadEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkMappedEpochAt measures random-access decoding through the
// mapped store with a reused buffer (the /flows scan loop shape).
func BenchmarkMappedEpochAt(b *testing.B) {
	recs := randRecords(rand.New(rand.NewPCG(5, 6)), 10000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const epochs = 8
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	m, err := NewMappedBytes(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	var dst []flow.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := m.AppendEpochAt(i%epochs, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = ep.Records
	}
	b.SetBytes(int64(len(recs)))
}

// BenchmarkOpenMapped measures the index-build cost a per-request
// re-mapping (query.FileStore) pays.
func BenchmarkOpenMapped(b *testing.B) {
	recs := randRecords(rand.New(rand.NewPCG(7, 8)), 10000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const epochs = 64
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMappedBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if m.Epochs() != epochs {
			b.Fatal("bad index")
		}
	}
}

// BenchmarkSegmentWindowScan is the cold /v1/flows shape: open a segment
// afresh and scan one 16-epoch block of full-size epochs, 85% of whose
// keys carry over, with a reused buffer.
func BenchmarkSegmentWindowScan(b *testing.B) {
	const epochs, recs = 16, 20000
	data := carriedEpochs(rand.New(rand.NewPCG(9, 10)), epochs, recs, 0.85)
	var img bytes.Buffer
	sw := NewSegmentWriter(&img, SegmentCold)
	for e, r := range data {
		if err := sw.Add(SegmentEpoch{Time: time.Unix(int64(e), 0), Records: r}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	var dst []flow.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := OpenSegmentBytes(img.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			ep, err := seg.AppendEpochAt(e, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
			dst = ep.Records
		}
		seg.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*epochs*recs), "ns/rec")
}
