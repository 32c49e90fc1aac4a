package recordstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/flow"
	"repro/internal/faults"
)

// epochRecords builds n deterministic records for epoch e.
func epochRecords(e, n int) []flow.Record {
	recs := make([]flow.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, flow.Record{
			Key: flow.Key{
				SrcIP:   uint32(0x0A000000 + i*7 + e),
				DstIP:   uint32(0xC0A80000 + i),
				SrcPort: uint16(1024 + i), DstPort: 443, Proto: 6,
			},
			Count: uint32(100 + e*10 + i),
		})
	}
	return recs
}

// writeStoreFile writes n epochs of deterministic records to path and
// returns the file image.
func writeStoreFile(t *testing.T, path string, n int) []byte {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for e := 0; e < n; e++ {
		if err := w.WriteEpoch(time.Unix(int64(1000+e), 0), epochRecords(e, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRecoverTailEveryOffset is the torn-tail property test: a store of K
// epochs truncated at every byte offset inside (and after) the final
// epoch frame must recover to a store both read paths agree on, holding
// K-1 epochs (or K at the exact end).
func TestRecoverTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.frec")
	img := writeStoreFile(t, ref, 4)

	// Find where the final epoch frame begins.
	m, err := NewMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs() != 4 {
		t.Fatalf("reference store has %d epochs, want 4", m.Epochs())
	}
	// The final frame (length varint + body) begins where epoch 2's body
	// ends.
	lastFrameStart := int64(m.metas[2].off + m.metas[2].size)
	m.Close()

	path := filepath.Join(dir, "torn.frec")
	for cut := lastFrameStart; cut <= int64(len(img)); cut++ {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverTail(path)
		if err != nil {
			t.Fatalf("cut=%d: RecoverTail: %v", cut, err)
		}
		wantEpochs := 3
		if cut == int64(len(img)) {
			wantEpochs = 4
		}
		if rec.Epochs != wantEpochs {
			t.Fatalf("cut=%d: recovered %d epochs, want %d (torn=%d)", cut, rec.Epochs, wantEpochs, rec.TornBytes)
		}
		if rec.GoodSize+rec.TornBytes != cut {
			t.Fatalf("cut=%d: good %d + torn %d != cut", cut, rec.GoodSize, rec.TornBytes)
		}

		// Both read paths must agree on the recovered file, with no
		// truncated-tail condition left.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("cut=%d: streamed read after recovery: %v", cut, err)
		}
		mm, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("cut=%d: OpenMapped after recovery: %v", cut, err)
		}
		if mm.Truncated() {
			t.Fatalf("cut=%d: mapped store still truncated after recovery", cut)
		}
		if len(streamed) != wantEpochs || mm.Epochs() != wantEpochs {
			t.Fatalf("cut=%d: streamed %d / mapped %d epochs, want %d",
				cut, len(streamed), mm.Epochs(), wantEpochs)
		}
		for i, ep := range streamed {
			mep, err := mm.EpochAt(i)
			if err != nil {
				t.Fatalf("cut=%d: mapped epoch %d: %v", cut, i, err)
			}
			if !ep.Time.Equal(mep.Time) || len(ep.Records) != len(mep.Records) {
				t.Fatalf("cut=%d: epoch %d reader/mapped disagree", cut, i)
			}
		}
		mm.Close()
	}
}

// TestRecoverTailNonStore: a file that is not a record store must be
// reported, never truncated.
func TestRecoverTailNonStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.frec")
	body := []byte("this is somebody else's file, hands off")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverTail(path); !errors.Is(err, ErrNotStore) {
		t.Fatalf("RecoverTail on a non-store: err=%v, want ErrNotStore", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, body) {
		t.Error("RecoverTail modified a non-store file")
	}
}

// TestRecoverTailMissingAndEmpty: nothing to recover is not an error.
func TestRecoverTailMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	rec, err := RecoverTail(filepath.Join(dir, "absent.frec"))
	if err != nil || !rec.Created {
		t.Fatalf("missing file: rec=%+v err=%v", rec, err)
	}
	empty := filepath.Join(dir, "empty.frec")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = RecoverTail(empty)
	if err != nil || !rec.Created {
		t.Fatalf("empty file: rec=%+v err=%v", rec, err)
	}
	// A partial header from a writer killed before its first flush is
	// reset to empty.
	partial := filepath.Join(dir, "partial.frec")
	if err := os.WriteFile(partial, []byte("FR"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = RecoverTail(partial)
	if err != nil || !rec.Created || rec.TornBytes != 2 {
		t.Fatalf("partial header: rec=%+v err=%v", rec, err)
	}
	if st, _ := os.Stat(partial); st.Size() != 0 {
		t.Errorf("partial header not truncated: %d bytes", st.Size())
	}
}

// TestOpenFileFreshStoreReadable: a store OpenFile has just created —
// from no file, or from the empty file a writer killed before its first
// flush leaves — opens for reading as zero epochs.
func TestOpenFileFreshStoreReadable(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.frec")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "absent.frec"), empty} {
		fw, rec, err := OpenFile(path, SyncPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Created {
			t.Errorf("%s: Created=false", path)
		}
		src, err := Open(path)
		if err != nil {
			t.Fatalf("%s: open fresh store: %v", path, err)
		}
		if n := src.Epochs(); n != 0 {
			t.Errorf("%s: fresh store lists %d epochs", path, n)
		}
		src.Close()
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFileResume: epochs appended across three writer generations —
// one of them crash-torn — read back as one contiguous store.
func TestOpenFileResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.frec")
	recs := func(c uint32) []flow.Record {
		return []flow.Record{{Key: flow.Key{SrcIP: 1, DstIP: 2, Proto: 6}, Count: c}}
	}

	fw, rec, err := OpenFile(path, SyncPolicy{Mode: SyncEachEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Created {
		t.Errorf("first open: Created=false")
	}
	if err := fw.WriteEpoch(time.Unix(1, 0), recs(10)); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteEpoch(time.Unix(2, 0), recs(20)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-epoch: append garbage that looks like the
	// start of a frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fw, rec, err = OpenFile(path, SyncPolicy{Mode: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epochs != 2 || rec.TornBytes != 3 {
		t.Fatalf("resume recovery = %+v, want 2 epochs, 3 torn bytes", rec)
	}
	if err := fw.WriteEpoch(time.Unix(3, 0), recs(30)); err != nil {
		t.Fatal(err)
	}
	if got := fw.Epochs(); got != 3 {
		t.Errorf("resumed writer Epochs() = %d, want 3 (store-wide)", got)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epochs() != 3 || m.Truncated() {
		t.Fatalf("final store: %d epochs, truncated=%v", m.Epochs(), m.Truncated())
	}
	for i, want := range []uint32{10, 20, 30} {
		ep, err := m.EpochAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(ep.Records) != 1 || ep.Records[0].Count != want {
			t.Errorf("epoch %d: records %+v, want single count %d", i, ep.Records, want)
		}
	}
}

// countingSyncer counts Sync calls.
type countingSyncer struct{ n int }

func (c *countingSyncer) Sync() error {
	c.n++
	return nil
}

// TestSyncPolicyEachEpoch: one fsync per epoch, plus the shutdown barrier.
func TestSyncPolicyEachEpoch(t *testing.T) {
	var buf bytes.Buffer
	cs := &countingSyncer{}
	w := NewWriter(&buf)
	w.SetSyncPolicy(cs, SyncPolicy{Mode: SyncEachEpoch})
	recs := []flow.Record{{Key: flow.Key{SrcIP: 9}, Count: 1}}
	for i := 0; i < 3; i++ {
		if err := w.WriteEpoch(time.Unix(int64(i), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	if cs.n != 3 {
		t.Errorf("per-epoch policy synced %d times over 3 epochs", cs.n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if cs.n != 4 {
		t.Errorf("explicit Sync did not reach the syncer (n=%d)", cs.n)
	}
	// The per-epoch flush means the stream is complete without Flush.
	eps, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil || len(eps) != 3 {
		t.Fatalf("read back: %d epochs, err=%v", len(eps), err)
	}
}

// TestSyncPolicyInterval: syncs are rate-limited by the interval.
func TestSyncPolicyInterval(t *testing.T) {
	var buf bytes.Buffer
	cs := &countingSyncer{}
	w := NewWriter(&buf)
	w.SetSyncPolicy(cs, SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	recs := []flow.Record{{Key: flow.Key{SrcIP: 9}, Count: 1}}
	for i := 0; i < 5; i++ {
		if err := w.WriteEpoch(time.Unix(int64(i), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	// The first write syncs (lastSync zero → interval elapsed), later ones
	// are inside the hour.
	if cs.n != 1 {
		t.Errorf("interval policy synced %d times, want 1", cs.n)
	}
}

// TestParseSyncPolicy covers the flag surface.
func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"off", SyncPolicy{Mode: SyncOff}, false},
		{"", SyncPolicy{Mode: SyncOff}, false},
		{"epoch", SyncPolicy{Mode: SyncEachEpoch}, false},
		{"500ms", SyncPolicy{Mode: SyncInterval, Interval: 500 * time.Millisecond}, false},
		{"-1s", SyncPolicy{}, true},
		{"bogus", SyncPolicy{}, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %+v, %v", c.in, got, err)
		}
	}
	for _, p := range []SyncPolicy{{Mode: SyncOff}, {Mode: SyncEachEpoch}, {Mode: SyncInterval, Interval: time.Second}} {
		rt, err := ParseSyncPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %v: %+v, %v", p, rt, err)
		}
	}
}

// TestRecoverTailAfterInjectedTear drives the real failure shape through
// the fault injector: a writer killed mid-frame (the write tears at an
// arbitrary byte limit) leaves a file whose tail RecoverTail must peel
// back to the last intact epoch.
func TestRecoverTailAfterInjectedTear(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.frec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}

	// Let two epochs and a bit of the third through, then tear.
	var intact bytes.Buffer
	w := NewWriter(&intact)
	for e := 0; e < 2; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), epochRecords(e, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	limit := int64(intact.Len() + 7) // 7 bytes into the third epoch's frame

	fw := faults.NewWriter(f, limit)
	w2 := NewWriter(fw)
	for e := 0; e < 3; e++ {
		if err := w2.WriteEpoch(time.Unix(int64(e), 0), epochRecords(e, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Flush(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("flush through the torn writer: %v, want ErrInjected", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := RecoverTail(path)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.Epochs != 2 {
		t.Fatalf("recovered %d epochs, want the 2 intact ones", rec.Epochs)
	}
	if rec.TornBytes != 7 {
		t.Fatalf("TornBytes = %d, want the 7 bytes of torn frame", rec.TornBytes)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epochs() != 2 || m.Truncated() {
		t.Fatalf("recovered store: %d epochs, truncated=%v", m.Epochs(), m.Truncated())
	}
}
