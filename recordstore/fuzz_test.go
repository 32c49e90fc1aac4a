package recordstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/flow"
)

// FuzzReader feeds arbitrary bytes to the store reader: errors are fine,
// panics and unbounded allocations are not.
func FuzzReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.WriteEpoch(time.Unix(1, 0), []flow.Record{
		{Key: flow.Key{SrcIP: 1, Proto: 6}, Count: 2},
		{Key: flow.Key{SrcIP: 2, Proto: 17}, Count: 9},
	})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte("FREC\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			_, err := r.ReadEpoch()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
		}
	})
}

// FuzzRecoverTail feeds arbitrary file images to the torn-tail recovery
// path: whatever the bytes, recovery must not panic, and when it reports
// success the recovered file must open cleanly on both read paths with no
// truncated-tail condition left — recovery that leaves a store a restarted
// collector still cannot append to has failed at its one job.
func FuzzRecoverTail(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.WriteEpoch(time.Unix(1, 0), []flow.Record{
		{Key: flow.Key{SrcIP: 1, Proto: 6}, Count: 2},
		{Key: flow.Key{SrcIP: 2, Proto: 17}, Count: 9},
	})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3]) // torn tail
	f.Add([]byte("FREC\x01"))
	f.Add([]byte("FREC\x01\x07garbage"))
	f.Add([]byte("FR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.frec")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverTail(path)
		if err != nil {
			return // not a store, or an unsupported version: refused, fine
		}
		if rec.Created {
			return // nothing recovered; the writer would start fresh
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("recovered store does not open: %v (recovery %+v)", err, rec)
		}
		defer m.Close()
		if m.Truncated() {
			t.Fatalf("recovered store still truncated (recovery %+v)", rec)
		}
		if m.Epochs() != rec.Epochs {
			t.Fatalf("mapped sees %d epochs, recovery reported %d", m.Epochs(), rec.Epochs)
		}
		for i := 0; i < m.Epochs(); i++ {
			if _, err := m.EpochAt(i); err != nil {
				t.Fatalf("recovered epoch %d does not decode: %v", i, err)
			}
		}
	})
}

// FuzzReadManifest feeds arbitrary bytes to the tiered store's manifest
// reader: whatever it accepts must name only segment files inside the
// store, with sane counts and bounds, and survive a write/read round trip.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"seq":2,"cutoff_nanos":9,"segments":[` +
		`{"file":"seg-000001.cseg","kind":"cold","epochs":4,"from_nanos":1,"to_nanos":9,"bytes":100,"span_epochs":4},` +
		`{"file":"seg-000002.rseg","kind":"rollup","epochs":1,"from_nanos":1,"to_nanos":9,"bytes":50,"span_epochs":4}]}`))
	f.Add([]byte(`{"version":1,"segments":[{"file":"../seg-000001.cseg","epochs":1}]}`))
	f.Add([]byte(`{"version":1,"segments":[{"file":"seg-1.cseg","epochs":-1}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(dir)
		if err != nil {
			return
		}
		for _, s := range m.Segments {
			if filepath.Base(s.File) != s.File || !strings.HasPrefix(s.File, "seg-") ||
				s.Epochs < 0 || s.FromNanos > s.ToNanos {
				t.Fatalf("accepted bad segment entry %+v", s)
			}
		}
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		again, err := readManifest(dir)
		if err != nil {
			t.Fatalf("rewritten manifest refused: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest round trip: %+v != %+v", again, m)
		}
	})
}

// FuzzParseFilter must never panic on arbitrary expressions.
func FuzzParseFilter(f *testing.F) {
	f.Add("src=10.0.0.1,dport=443")
	f.Add("")
	f.Add("minpkts=,,,")
	f.Fuzz(func(t *testing.T, expr string) {
		_, _ = ParseFilter(expr)
	})
}
