package netflow

import (
	"bytes"
	"testing"
)

// The decoders must never panic or over-read, whatever bytes arrive from
// the network.

func FuzzDecodeV5(f *testing.F) {
	seed, err := Encode(nil, Header{FlowSequence: 3}, []Record{{SrcIP: 1, Packets: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := Decode(data)
		if err != nil {
			return
		}
		if int(hdr.Count) != len(recs) {
			t.Fatalf("header count %d but %d records decoded", hdr.Count, len(recs))
		}
	})
}

func FuzzDecodeAppend(f *testing.F) {
	seed, err := Encode(nil, Header{FlowSequence: 3}, []Record{{SrcIP: 1, Packets: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := Record{SrcIP: 0xdead}
		hdr, recs, err := DecodeAppend([]Record{prefix}, data)
		if err != nil {
			if len(recs) != 1 {
				t.Fatalf("error path modified dst: %d records", len(recs))
			}
			return
		}
		if len(recs) != 1+int(hdr.Count) {
			t.Fatalf("header count %d but %d records appended", hdr.Count, len(recs)-1)
		}
		if recs[0] != prefix {
			t.Fatal("DecodeAppend clobbered existing records")
		}
		// Must agree with Decode on the same bytes.
		dhdr, drecs, derr := Decode(data)
		if derr != nil || dhdr != hdr || len(drecs) != len(recs)-1 {
			t.Fatalf("Decode disagrees: %v %+v %d", derr, dhdr, len(drecs))
		}
		for i := range drecs {
			if drecs[i] != recs[i+1] {
				t.Fatalf("record %d disagrees with Decode", i)
			}
		}
	})
}

func FuzzCollectorIngest(f *testing.F) {
	seed, err := Encode(nil, Header{}, []Record{{SrcIP: 5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCollector()
		_ = c.Ingest(data)
		_ = c.Ingest(data)
		if c.Count() != len(c.Records()) {
			t.Fatal("Count disagrees with Records")
		}
	})
}
