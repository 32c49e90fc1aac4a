package recordstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"repro/flow"
	"repro/internal/keysort"
	"repro/trace"
)

// radixMinLen is the epoch size at which the Writer's key sort leaves the
// comparison sort for the radix passes.
const radixMinLen = keysort.MinRadixLen

// lessWords orders keys by their packed two-word encoding: the tests'
// reference key order, written out apart from the sort kernel.
func lessWords(a, b flow.Key) bool {
	a1, a2 := a.Words()
	b1, b2 := b.Words()
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

func randRecords(rng *rand.Rand, n int) []flow.Record {
	out := make([]flow.Record, n)
	for i := range out {
		out[i] = flow.Record{
			Key: flow.Key{
				SrcIP:   rng.Uint32(),
				DstIP:   rng.Uint32(),
				SrcPort: uint16(rng.Uint32()),
				DstPort: uint16(rng.Uint32()),
				Proto:   uint8(rng.Uint32()),
			},
			Count: rng.Uint32(),
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	epochTimes := []time.Time{
		time.Unix(1700000000, 123).UTC(),
		time.Unix(1700000300, 456).UTC(),
		time.Unix(1700000600, 0).UTC(),
	}
	epochs := make([][]flow.Record, len(epochTimes))
	for i := range epochs {
		epochs[i] = randRecords(rng, 100*(i+1))
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, recs := range epochs {
		if err := w.WriteEpoch(epochTimes[i], recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Epochs() != 3 {
		t.Errorf("Epochs = %d", w.Epochs())
	}

	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(epochs) {
		t.Fatalf("read %d epochs, want %d", len(got), len(epochs))
	}
	for i, ep := range got {
		if !ep.Time.Equal(epochTimes[i]) {
			t.Errorf("epoch %d time %v, want %v", i, ep.Time, epochTimes[i])
		}
		want := make(map[flow.Key]uint32, len(epochs[i]))
		for _, r := range epochs[i] {
			want[r.Key] = r.Count
		}
		if len(ep.Records) != len(want) {
			t.Fatalf("epoch %d: %d records, want %d", i, len(ep.Records), len(want))
		}
		for _, r := range ep.Records {
			if want[r.Key] != r.Count {
				t.Fatalf("epoch %d: record %v count %d, want %d", i, r.Key, r.Count, want[r.Key])
			}
		}
		// Records come back sorted by packed key.
		for j := 1; j < len(ep.Records); j++ {
			if lessWords(ep.Records[j].Key, ep.Records[j-1].Key) {
				t.Fatalf("epoch %d records not sorted at %d", i, j)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, count uint32) bool {
		rec := flow.Record{
			Key:   flow.Key{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto},
			Count: count,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteEpoch(time.Unix(0, 0), []flow.Record{rec}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		eps, err := NewReader(&buf).ReadAll()
		return err == nil && len(eps) == 1 && len(eps[0].Records) == 1 && eps[0].Records[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompactness(t *testing.T) {
	// Varint delta encoding should beat the naive 17 bytes/record on a
	// realistic trace epoch.
	tr, err := trace.Generate(trace.ISP1, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEpoch(time.Now(), tr.Flows); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	naive := len(tr.Flows) * (flow.KeyBytes + 4)
	if buf.Len() >= naive {
		t.Errorf("encoded %d bytes, naive is %d — no compression achieved", buf.Len(), naive)
	}
	t.Logf("encoded %d records in %d bytes (%.1f B/record, naive %.0f)",
		len(tr.Flows), buf.Len(), float64(buf.Len())/float64(len(tr.Flows)), 17.0)
}

func TestEmptyEpoch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEpoch(time.Unix(5, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	eps, err := NewReader(&buf).ReadAll()
	if err != nil || len(eps) != 1 || len(eps[0].Records) != 0 {
		t.Errorf("empty epoch round trip: %v, %v", eps, err)
	}
}

func TestEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	eps, err := NewReader(&buf).ReadAll()
	if err != nil || len(eps) != 0 {
		t.Errorf("empty store: %v, %v", eps, err)
	}
}

func TestReaderErrors(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX1"))).ReadEpoch(); !errors.Is(err, ErrNotStore) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("FREC\x09"))).ReadEpoch(); err == nil {
		t.Error("accepted unknown version")
	}
	// Truncated epoch body.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEpoch(time.Unix(0, 0), randRecords(rand.New(rand.NewPCG(9, 9)), 50)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-10]
	if _, err := NewReader(bytes.NewReader(truncated)).ReadEpoch(); err == nil {
		t.Error("accepted truncated epoch")
	}
}

func TestCorruptPackedKeyRejected(t *testing.T) {
	// Hand-craft an epoch whose second key word has garbage above bit 40.
	var body []byte
	body = appendUvarint(body, 0)     // nanos
	body = appendUvarint(body, 1)     // count
	body = appendUvarint(body, 0)     // w1 delta
	body = appendUvarint(body, 1<<50) // w2 with invalid high bits
	body = appendUvarint(body, 1)     // count

	var buf bytes.Buffer
	buf.WriteString("FREC")
	buf.WriteByte(version)
	buf.Write(appendUvarint(nil, uint64(len(body))))
	buf.Write(body)

	if _, err := NewReader(&buf).ReadEpoch(); err == nil {
		t.Error("accepted corrupt packed key")
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [10]byte
	n := 0
	for v >= 0x80 {
		tmp[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	tmp[n] = byte(v)
	return append(dst, tmp[:n+1]...)
}

func TestReadEpochEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEpoch(time.Unix(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.ReadEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadEpoch(); !errors.Is(err, io.EOF) {
		t.Errorf("expected io.EOF, got %v", err)
	}
}
