package netflow

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkEncodeV5(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], Header{FlowSequence: uint32(i)}, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeV5(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	buf, err := Encode(nil, Header{}, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAppendV5(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	recs := make([]Record, MaxRecordsPerDatagram)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	buf, err := Encode(nil, Header{}, recs)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Record, 0, MaxRecordsPerDatagram)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAppend(dst[:0], buf); err != nil {
			b.Fatal(err)
		}
	}
}
