package recordstore

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/flow"
)

// epochTime is the deterministic data clock the tiered tests run on:
// epoch e exported at base + e minutes.
func epochTime(e int) time.Time {
	return time.Unix(int64(1700000000+60*e), 0).UTC()
}

// fillTiered writes epochs [from, to) into tw.
func fillTiered(t *testing.T, tw *Tiered, from, to int) {
	t.Helper()
	for e := from; e < to; e++ {
		if err := tw.WriteEpoch(epochTime(e), epochRecords(e, 24)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkTiered opens dir read-only and asserts it serves exactly epochs
// [0, n) with the original data, returning the source for further
// assertions. Rollup tiers would break the data equality, so callers
// only use it on lossless stores.
func checkTiered(t *testing.T, dir string, n int) *TieredSource {
	t.Helper()
	src, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Epochs() != n {
		t.Fatalf("tiered source epochs = %d, want %d", src.Epochs(), n)
	}
	var buf []flow.Record
	for e := 0; e < n; e++ {
		if !src.EpochTime(e).Equal(epochTime(e)) {
			t.Fatalf("epoch %d time %v, want %v", e, src.EpochTime(e), epochTime(e))
		}
		ep, err := src.AppendEpochAt(e, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = ep.Records
		if !slices.Equal(ep.Records, epochRecords(e, 24)) {
			t.Fatalf("epoch %d records diverge after tiering", e)
		}
	}
	return src
}

// TestTieredCompactMigratesAndPreserves: explicit compaction moves
// everything past the hot window into cold segments without losing or
// duplicating an epoch, repeatedly.
func TestTieredCompactMigratesAndPreserves(t *testing.T) {
	dir := t.TempDir()
	tw, rec, err := OpenTiered(dir, TieredOptions{HotEpochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Created {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}

	total := 0
	for round := 0; round < 3; round++ {
		fillTiered(t, tw, total, total+40)
		total += 40
		stats, err := tw.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Migrated == 0 {
			t.Fatalf("round %d: nothing migrated", round)
		}
		if stats.SegmentBytes <= 0 || stats.RawBytes <= stats.SegmentBytes {
			t.Fatalf("round %d: segment %d bytes vs raw %d — no compression?", round, stats.SegmentBytes, stats.RawBytes)
		}
		if stats.StallNs <= 0 {
			t.Fatalf("round %d: stall not measured", round)
		}
		src := checkTiered(t, dir, total)
		if src.Segments() != round+1 {
			t.Fatalf("round %d: %d segments", round, src.Segments())
		}
		src.Close()
	}

	// Hot file holds only the window now.
	m, err := OpenMapped(filepath.Join(dir, hotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs() != 10 {
		t.Fatalf("hot tier holds %d epochs, want 10", m.Epochs())
	}
	m.Close()

	// A second compaction with nothing over the window is a no-op.
	stats, err := tw.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrated != 0 {
		t.Fatalf("idle compaction migrated %d", stats.Migrated)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen read-write: still everything, and appends continue.
	tw, rec, err = OpenTiered(dir, TieredOptions{HotEpochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epochs != 10 {
		t.Fatalf("reopen hot recovery = %+v", rec)
	}
	fillTiered(t, tw, total, total+5)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	checkTiered(t, dir, total+5).Close()
}

// TestTieredScanHoldsOneDecoder: a scan across every cold segment hands
// each segment's decoder back when it moves on, so the source holds one
// inflated block however many segments the store has.
func TestTieredScanHoldsOneDecoder(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for round := 0; round < 3; round++ {
		fillTiered(t, tw, total, total+20)
		total += 20
		if _, err := tw.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	src := checkTiered(t, dir, total)
	defer src.Close()
	if src.Segments() != 3 {
		t.Fatalf("%d segments, want 3", src.Segments())
	}
	holding := 0
	for _, seg := range src.segs {
		seg.mu.Lock()
		if seg.dec != nil {
			holding++
		}
		seg.mu.Unlock()
	}
	if holding != 1 {
		t.Fatalf("%d segments hold a decoder after the scan, want 1", holding)
	}
}

// TestTieredColdRangeSkipsHot is the acceptance scenario: a ≥1000-epoch
// store answers a time-ranged query over old data by binary search into
// cold segments without decoding a single hot-resident epoch.
func TestTieredColdRangeSkipsHot(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1050
	for chunk := 0; chunk < total; chunk += 210 {
		fillTiered(t, tw, chunk, chunk+210)
		if _, err := tw.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Epochs() != total {
		t.Fatalf("epochs = %d, want %d", src.Epochs(), total)
	}
	if src.Segments() < 5 {
		t.Fatalf("segments = %d, want several", src.Segments())
	}

	// A month-old day: epochs [100, 160).
	lo, hi := src.Range(epochTime(100), epochTime(160))
	if lo != 100 || hi != 160 {
		t.Fatalf("Range = [%d,%d), want [100,160)", lo, hi)
	}
	var buf []flow.Record
	for e := lo; e < hi; e++ {
		ep, err := src.AppendEpochAt(e, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = ep.Records
		if !slices.Equal(ep.Records, epochRecords(e, 24)) {
			t.Fatalf("cold epoch %d diverges", e)
		}
	}
	if got := src.HotDecodes(); got != 0 {
		t.Fatalf("cold-range query decoded %d hot epochs, want 0", got)
	}

	// The hot tail is still served — and counted.
	if _, err := src.AppendEpochAt(total-1, nil); err != nil {
		t.Fatal(err)
	}
	if got := src.HotDecodes(); got != 1 {
		t.Fatalf("hot decode count = %d, want 1", got)
	}
}

// TestTieredCutoffDedup: the crash window where epochs exist in both a
// published segment and the untrimmed hot file must deduplicate at read
// time, and the next read-write open + compaction must converge.
func TestTieredCutoffDedup(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 0, 12)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: build and publish the segment + manifest by
	// hand (exactly compaction's first two steps) and "die" before the
	// hot rewrite — the hot file keeps all 12 epochs.
	m, err := OpenMapped(filepath.Join(dir, hotFileName))
	if err != nil {
		t.Fatal(err)
	}
	segName := "seg-000001" + coldSegExt
	f, err := os.Create(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSegmentWriter(f, SegmentCold)
	for e := 0; e < 8; e++ {
		ep, err := m.EpochAt(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Add(SegmentEpoch{Time: ep.Time, Records: ep.Records}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	f.Close()
	m.Close()
	man := manifest{Version: manifestVersion, Seq: 1, CutoffNanos: epochTime(7).UnixNano(),
		Segments: []segmentEntry{{File: segName, Kind: "cold", Epochs: 8,
			FromNanos: epochTime(0).UnixNano(), ToNanos: epochTime(7).UnixNano(),
			Bytes: st.Size(), SpanEpochs: 8}}}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	tw.fw.f.Close() // the "crash"

	// Readers dedup: 12 epochs, not 20.
	checkTiered(t, dir, 12).Close()

	// Restarted writer converges: the leftover prefix is trimmed by the
	// next compaction and nothing is lost.
	tw, _, err = OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 12, 14)
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	checkTiered(t, dir, 14).Close()
	m, err = OpenMapped(filepath.Join(dir, hotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs() != 4 {
		t.Fatalf("hot tier holds %d epochs after converging, want 4", m.Epochs())
	}
	m.Close()
}

// TestTieredOrphanGC: segment files a crashed compaction renamed but
// never published are invisible to readers and deleted by the next
// read-write open.
func TestTieredOrphanGC(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 0, 6)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "seg-000042"+coldSegExt)
	if err := os.WriteFile(orphan, []byte(segMagic+"\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "seg-000043"+coldSegExt+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	src := checkTiered(t, dir, 6)
	if src.Segments() != 0 {
		t.Fatalf("reader sees %d unpublished segments", src.Segments())
	}
	src.Close()

	tw, _, err = OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	for _, p := range []string{orphan, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived read-write open", filepath.Base(p))
		}
	}
}

// TestTieredEqualTimestampBoundary: a run of equal-timestamp epochs is
// never split across the hot/cold cutoff — the read-side dedup rule
// could not tell a migrated twin from a live one.
func TestTieredEqualTimestampBoundary(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 0..7 where 3,4,5 share one timestamp; window of 2 would cut
	// at 5/6... but with HotEpochs=2 the boundary falls at epoch 6 —
	// make the run straddle it: epochs 4,5,6 share a timestamp.
	times := []int{0, 1, 2, 3, 4, 4, 4, 7}
	for e, tt := range times {
		if err := tw.WriteEpoch(epochTime(tt), epochRecords(e, 16)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := tw.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// Naively 8-2=6 epochs would migrate, splitting the 4,4,4 run after
	// its first member; the boundary must retreat to migrate only 4.
	if stats.Migrated != 4 {
		t.Fatalf("migrated %d epochs across an equal-timestamp run, want 4", stats.Migrated)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Epochs() != 8 {
		t.Fatalf("epochs after boundary compaction = %d, want 8", src.Epochs())
	}
}

// TestTieredRetentionRollup: cold segments aging out of the lossless
// window collapse into rollup epochs that keep exact top-K and totals;
// the epoch index stays queryable end to end.
func TestTieredRetentionRollup(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{
		HotEpochs: 10,
		Retain:    30 * time.Minute, // epochs are 1 min apart
		RollupK:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 0, 40)
	stats, err := tw.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrated != 30 {
		t.Fatalf("migrated %d", stats.Migrated)
	}
	// The fresh segment's newest epoch (29) is within 30min of epoch 39:
	// not yet expired.
	if stats.RolledUp != 0 {
		t.Fatalf("rolled up %d segments prematurely", stats.RolledUp)
	}

	// Another 60 epochs push the first segment past the horizon.
	fillTiered(t, tw, 40, 100)
	stats, err = tw.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RolledUp == 0 {
		t.Fatal("no segment rolled up past the retention horizon")
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// 30 source epochs collapsed to 1 rollup: 100 - 30 + 1 = 71.
	if src.Epochs() != 71 {
		t.Fatalf("epochs after rollup = %d, want 71", src.Epochs())
	}
	info := src.EpochInfo(0)
	if info.Tier != "rollup" || info.Span != 30 || info.Records != 5 {
		t.Fatalf("rollup epoch info = %+v", info)
	}
	if info.TotalRecords != 30*24 {
		t.Fatalf("rollup TotalRecords = %d, want %d", info.TotalRecords, 30*24)
	}
	ep, err := src.AppendEpochAt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Records) != 5 {
		t.Fatalf("rollup epoch decoded %d records", len(ep.Records))
	}
	// Later epochs are untouched.
	ep, err = src.AppendEpochAt(70, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ep.Records, epochRecords(99, 24)) {
		t.Fatal("newest epoch diverged after retention")
	}
}

// TestTieredRecoverTailComposition: a torn hot tail in a tiered dir is
// truncated on open exactly like a flat store's (PR 7 recovery).
func TestTieredRecoverTailComposition(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 0, 6)
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	hotPath := filepath.Join(dir, hotFileName)
	f, err := os.OpenFile(hotPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x50, 0x01, 0x02}); err != nil { // torn frame
		t.Fatal(err)
	}
	f.Close()

	tw, rec, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 3 || rec.Epochs != 4 {
		t.Fatalf("recovery = %+v, want 3 torn bytes over 4 epochs", rec)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	checkTiered(t, dir, 6).Close()
}

// TestTieredManifestRejectsBadEntries: a corrupt manifest must not make
// the store open, serve or delete a file outside its directory, nor
// accept an entry whose counts or time bounds cannot describe a segment.
func TestTieredManifestRejectsBadEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(e *segmentEntry)
	}{
		{"parent dir", func(e *segmentEntry) { e.File = "../" + e.File }},
		{"not a segment", func(e *segmentEntry) { e.File = hotFileName }},
		{"negative epochs", func(e *segmentEntry) { e.Epochs = -1 }},
		{"inverted bounds", func(e *segmentEntry) { e.FromNanos = e.ToNanos + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "store")
			tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
			if err != nil {
				t.Fatal(err)
			}
			fillTiered(t, tw, 0, 10)
			if _, err := tw.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			man, err := readManifest(dir)
			if err != nil || len(man.Segments) != 1 {
				t.Fatalf("manifest %+v, %v", man, err)
			}
			// A copy of the valid segment outside the store, where "../"
			// points.
			seg, err := os.ReadFile(filepath.Join(dir, man.Segments[0].File))
			if err != nil {
				t.Fatal(err)
			}
			outside := filepath.Join(base, man.Segments[0].File)
			if err := os.WriteFile(outside, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.edit(&man.Segments[0])
			if err := writeManifest(dir, man); err != nil {
				t.Fatal(err)
			}

			if src, err := OpenTieredSource(dir); err == nil {
				src.Close()
				t.Fatalf("read-only open accepted entry %+v", man.Segments[0])
			}
			if tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4, Retain: time.Minute}); err == nil {
				tw.Compact()
				tw.Close()
				t.Fatalf("read-write open accepted entry %+v", man.Segments[0])
			}
			if _, err := os.Stat(outside); err != nil {
				t.Fatalf("file outside the store: %v", err)
			}
		})
	}
}

// TestTieredCompactionDuringQueryRace runs writers, the automatic
// compactor, retention and concurrent read-only opens together under
// the race detector: readers must always see a consistent store and the
// ENOENT retry must absorb segment retirement.
func TestTieredCompactionDuringQueryRace(t *testing.T) {
	dir := t.TempDir()
	compacted := make(chan struct{}, 64)
	tw, _, err := OpenTiered(dir, TieredOptions{
		HotEpochs:    8,
		CompactEvery: 8,
		Retain:       10 * time.Minute,
		RollupK:      4,
		OnCompact: func(stats CompactStats, err error) {
			if err != nil {
				t.Errorf("background compaction: %v", err)
			}
			select {
			case compacted <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []flow.Record
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, err := OpenTieredSource(dir)
				if err != nil {
					t.Errorf("read-only open: %v", err)
					return
				}
				n := src.Epochs()
				for e := 0; e < n; e += 7 {
					ep, err := src.AppendEpochAt(e, buf[:0])
					if err != nil {
						t.Errorf("decode epoch %d/%d: %v", e, n, err)
						break
					}
					buf = ep.Records
				}
				src.Close()
			}
		}()
	}

	for e := 0; e < 200; e++ {
		if err := tw.WriteEpoch(epochTime(e), epochRecords(e, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// At least one automatic compaction must have fired.
	select {
	case <-compacted:
	case <-time.After(10 * time.Second):
		t.Error("automatic compaction never ran")
	}
	close(stop)
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing lost: every epoch is accounted for, rolled up or not.
	src, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	covered := 0
	for e := 0; e < src.Epochs(); e++ {
		covered += src.EpochInfo(e).Span
	}
	if covered != 200 {
		t.Fatalf("tiers cover %d source epochs, want 200", covered)
	}
}

// TestTieredExplicitCompactRacesAuto: an explicit Compact (the daemons'
// shutdown path) must serialize against an automatic pass still in
// flight from the last WriteEpoch. Unserialized, both passes compute the
// same next segment sequence, write the same temp file, and the second
// manifest publish drops the first's segment after its hot rewrite
// already trimmed those epochs — permanent loss this test would surface
// as a short epoch count (and as -race reports).
func TestTieredExplicitCompactRacesAuto(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const total = 120
	for e := 0; e < total; e++ {
		if err := tw.WriteEpoch(epochTime(e), epochRecords(e, 24)); err != nil {
			t.Fatal(err)
		}
		// Explicit pass immediately after the write that may have kicked
		// off an automatic one — maximal overlap with the background
		// goroutine.
		if e%8 == 7 {
			if _, err := tw.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	checkTiered(t, dir, total).Close()
}

// TestTieredCompactAfterClose: Compact on a closed store must fail fast
// instead of running against a closed hot writer.
func TestTieredCompactAfterClose(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillTiered(t, tw, 0, 8)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Compact(); err == nil {
		t.Fatal("Compact on a closed store succeeded")
	}
}
