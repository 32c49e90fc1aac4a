package recordstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/flow"
)

// sortedEpoch builds n records for epoch e, sorted by packed key — the
// form hot stores persist and SegmentWriter.Add requires.
func sortedEpoch(e, n int) []flow.Record {
	return epochRecords(e, n)
}

// stableEpoch builds the realistic cold-tier workload: a keyset that is
// identical across epochs with counts drifting per epoch. Sorted
// neighbouring epochs are then nearly byte-identical, which is the
// redundancy the columnar block compression exists to exploit.
func stableEpoch(e, n int) []flow.Record {
	recs := make([]flow.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, flow.Record{
			Key: flow.Key{
				SrcIP:   uint32(0x0A000000 + i*11),
				DstIP:   uint32(0xC0A80000 + i*3),
				SrcPort: uint16(1024 + i%5000), DstPort: 443, Proto: 6,
			},
			Count: uint32(1000 + (e*31+i*7)%97),
		})
	}
	return recs
}

// buildSegment encodes the given epochs into a cold segment image.
func buildSegment(t *testing.T, kind SegmentKind, blockEpochs int, times []time.Time, epochs [][]flow.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, kind)
	if blockEpochs > 0 {
		sw.SetBlockEpochs(blockEpochs)
	}
	for i := range epochs {
		if err := sw.Add(SegmentEpoch{Time: times[i], Records: epochs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdEquivalence: a cold segment must yield, epoch for epoch and
// record for record, exactly what the hot decoder yields for the same
// epochs — including across block boundaries.
func TestColdEquivalence(t *testing.T) {
	const n = 10
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	var hot bytes.Buffer
	w := NewWriter(&hot)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(1700000000+300*e), int64(e)).UTC()
		epochs[e] = sortedEpoch(e, 50+e*13)
		if err := w.WriteEpoch(times[e], epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := NewMappedBytes(hot.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Feed the segment from the hot decode, exactly as compaction does.
	hotEpochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		ep, err := m.EpochAt(e)
		if err != nil {
			t.Fatal(err)
		}
		hotEpochs[e] = ep.Records
	}
	seg, err := OpenSegmentBytes(buildSegment(t, SegmentCold, 4, times, hotEpochs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	if seg.Kind() != SegmentCold || seg.Epochs() != n {
		t.Fatalf("kind=%v epochs=%d", seg.Kind(), seg.Epochs())
	}
	var buf []flow.Record
	for e := 0; e < n; e++ {
		if !seg.EpochTime(e).Equal(m.EpochTime(e)) {
			t.Fatalf("epoch %d time %v != %v", e, seg.EpochTime(e), m.EpochTime(e))
		}
		if seg.EpochLen(e) != m.EpochLen(e) {
			t.Fatalf("epoch %d len %d != %d", e, seg.EpochLen(e), m.EpochLen(e))
		}
		got, err := seg.AppendEpochAt(e, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = got.Records
		if !slices.Equal(got.Records, hotEpochs[e]) {
			t.Fatalf("epoch %d records diverge from hot decode", e)
		}
		info := seg.EpochInfo(e)
		if info.Tier != "cold" || info.Span != 1 || info.Records != len(hotEpochs[e]) {
			t.Fatalf("epoch %d info = %+v", e, info)
		}
	}

	// Out-of-order access exercises the block cache both ways.
	for _, e := range []int{9, 0, 5, 9, 1} {
		got, err := seg.AppendEpochAt(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Records, hotEpochs[e]) {
			t.Fatalf("random access epoch %d diverges", e)
		}
	}
}

// TestColdDifferential drives the key diff through everything a
// compactor can hand it — carried-key shares from none to all, empty
// epochs, epochs sharing a timestamp, an epoch with duplicate keys (which
// a merge cannot express), diffs across block boundaries, blocks cut early
// by the byte bound — and holds the cold decode to the hot one record for
// record: sequentially, then in random order from two goroutines sharing
// the Segment (run under -race).
func TestColdDifferential(t *testing.T) {
	for _, share := range []float64{0, 0.5, 0.85, 1} {
		for _, cut := range []struct {
			name                    string
			blockEpochs, blockBytes int
		}{
			{"block-of-4", 4, defaultBlockBytes},
			{"default-block", 0, defaultBlockBytes},
			{"cut-by-bytes", 0, 12000},
		} {
			t.Run(fmt.Sprintf("carry%.0f%%/%s", share*100, cut.name), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(share*100), uint64(cut.blockBytes)))
				epochs := carriedEpochs(rng, 21, 400, share)
				// An empty epoch mid-block (so the next diffs against nothing),
				// one at a block's end, and one whose keys repeat.
				epochs[5], epochs[7] = nil, nil
				epochs[11] = slices.Concat(epochs[11][:10], epochs[11][5:])
				times := epochTimes(len(epochs))
				times[3], times[9] = times[2], times[8]

				m, err := NewMappedBytes(hotImage(t, times, epochs))
				if err != nil {
					t.Fatal(err)
				}
				// Feed the segment from the hot decode, exactly as compaction does.
				want := make([][]flow.Record, m.Epochs())
				var img bytes.Buffer
				sw := NewSegmentWriter(&img, SegmentCold)
				sw.SetBlockEpochs(cut.blockEpochs)
				sw.blockBytes = cut.blockBytes
				for e := range want {
					ep, err := m.EpochAt(e)
					if err != nil {
						t.Fatal(err)
					}
					want[e] = ep.Records
					if err := sw.Add(SegmentEpoch{Time: ep.Time, Records: ep.Records}); err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				seg, err := OpenSegmentBytes(img.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				defer seg.Close()

				// The shapes asked for are the shapes tested.
				diffs := 0
				for e, meta := range seg.metas {
					if first := e == 0 || seg.metas[e-1].block != meta.block; first && meta.mode != segModeFull {
						t.Fatalf("epoch %d opens block %d diff-coded", e, meta.block)
					}
					if meta.mode == segModeDiff {
						diffs++
					}
				}
				if share == 0 && diffs > 3 { // only the empty epochs' neighbours have a diff worth coding
					t.Fatalf("%d epochs diff-coded with no keys carried", diffs)
				}
				if share >= 0.5 && diffs < len(want)/2 {
					t.Fatalf("only %d of %d epochs diff-coded at share %.2f", diffs, len(want), share)
				}
				if cut.blockBytes < defaultBlockBytes && len(seg.blks) <= (len(want)+DefaultBlockEpochs-1)/DefaultBlockEpochs {
					t.Fatalf("%d blocks: the byte bound cut none early", len(seg.blks))
				}

				check := func(e int, dst []flow.Record) []flow.Record {
					got, err := seg.AppendEpochAt(e, dst[:0])
					if err != nil {
						t.Errorf("epoch %d: %v", e, err)
						return dst
					}
					if !got.Time.Equal(m.EpochTime(e)) || !slices.Equal(got.Records, want[e]) {
						t.Errorf("epoch %d diverges from the hot decode", e)
					}
					return got.Records
				}
				var buf []flow.Record
				for e := range want {
					buf = check(e, buf)
				}
				var wg sync.WaitGroup
				for r := uint64(0); r < 2; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewPCG(r, 77))
						var buf []flow.Record
						for n := 0; n < 2*len(want); n++ {
							buf = check(rng.IntN(len(want)), buf)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// carriedEpochs builds epochs of n distinct random keys each, sorted by
// packed key, in which share of every epoch's keys were in the epoch before
// it and the rest are new: the property the cold key diff lives on. Counts
// are small, as mice are.
func carriedEpochs(rng *rand.Rand, epochs, n int, share float64) [][]flow.Record {
	seen := map[flow.Key]bool{}
	fresh := func() flow.Key {
		for {
			k := flow.Key{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()),
			}
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	out := make([][]flow.Record, epochs)
	var prev []flow.Record
	for e := range out {
		recs := make([]flow.Record, 0, n)
		if e > 0 {
			for _, i := range rng.Perm(len(prev))[:int(share*float64(n))] {
				recs = append(recs, prev[i])
			}
		}
		for len(recs) < n {
			recs = append(recs, flow.Record{Key: fresh()})
		}
		for i := range recs {
			recs[i].Count = uint32(1 + rng.IntN(300))
		}
		slices.SortFunc(recs, func(a, b flow.Record) int { return flow.CompareKeys(a.Key, b.Key) })
		out[e], prev = recs, recs
	}
	return out
}

// epochTimes stamps n epochs a minute apart.
func epochTimes(n int) []time.Time {
	times := make([]time.Time, n)
	for e := range times {
		times[e] = time.Unix(int64(1700000000+60*e), 0).UTC()
	}
	return times
}

// hotImage is the hot FREC encoding of the epochs.
func hotImage(t testing.TB, times []time.Time, epochs [][]flow.Record) []byte {
	t.Helper()
	var hot bytes.Buffer
	w := NewWriter(&hot)
	for e := range epochs {
		if err := w.WriteEpoch(times[e], epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return hot.Bytes()
}

// TestColdCompressionRatio pins the acceptance floor on both shapes the
// cold tier meets (sorted epochs, its actual input): a small stable keyset
// with drifting counts, and full-size epochs in which 85% of the keys
// carry over — too big for DEFLATE's window to ever see the previous
// epoch, so only the key diff can find the redundancy. Either segment must
// be at least 3x smaller than the hot encoding of the same epochs.
func TestColdCompressionRatio(t *testing.T) {
	stable := make([][]flow.Record, 64)
	for e := range stable {
		stable[e] = stableEpoch(e, 2000)
	}
	for name, epochs := range map[string][][]flow.Record{
		"persistent-2k":    stable,
		"full-20k-carry85": carriedEpochs(rand.New(rand.NewPCG(85, 20)), 16, 20000, 0.85),
	} {
		t.Run(name, func(t *testing.T) {
			times := epochTimes(len(epochs))
			raw := len(hotImage(t, times, epochs))
			seg := buildSegment(t, SegmentCold, 0, times, epochs)
			ratio := float64(raw) / float64(len(seg))
			t.Logf("%d -> %d bytes, %.2fx", raw, len(seg), ratio)
			if ratio < 3.0 {
				t.Fatalf("compression ratio %.2fx (%d -> %d bytes), want >= 3x", ratio, raw, len(seg))
			}
		})
	}
}

// fullCodingSize is what a segment costs when every epoch's keys are coded
// in full and DEFLATE is left to find whatever epochs share, in blocks of
// DefaultBlockEpochs, stamped as epochTimes does: the yardstick for what
// key diffing may cost when there is nothing to diff.
func fullCodingSize(t *testing.T, epochs [][]flow.Record) int {
	t.Helper()
	size := len(segMagic) + 2
	stamp := int(epochTimes(1)[0].UnixNano()) // the first header's delta is the timestamp itself
	for len(epochs) > 0 {
		block := epochs[:min(DefaultBlockEpochs, len(epochs))]
		epochs = epochs[len(block):]
		var keys, counts, hdr []byte
		for _, recs := range block {
			k0, c0, packets := len(keys), len(counts), 0
			var prev keyWords
			for _, r := range recs {
				var k keyWords
				k.w1, k.w2 = r.Key.Words()
				keys = appendKey(keys, prev, k)
				counts = binary.AppendUvarint(counts, uint64(r.Count))
				packets += int(r.Count)
				prev = k
			}
			for _, v := range []int{stamp, len(recs), len(keys) - k0, len(counts) - c0, 1, len(recs), packets} {
				hdr = binary.AppendUvarint(hdr, uint64(v))
			}
			stamp = 60e9
		}
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(keys)
		fw.Write(counts)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		frame := 1 + len(hdr) + comp.Len()
		size += uvarintLen(uint64(frame)) + frame
	}
	return size
}

// TestColdNoCarryCostsNothing: when no key carries over, every epoch must
// fall back to the full coding, so the segment costs exactly what coding
// every epoch in full does — what version 1 wrote — plus the mode byte per
// epoch.
func TestColdNoCarryCostsNothing(t *testing.T) {
	epochs := carriedEpochs(rand.New(rand.NewPCG(0, 20)), 17, 5000, 0)
	img := buildSegment(t, SegmentCold, 0, epochTimes(len(epochs)), epochs)
	seg, err := OpenSegmentBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for e, m := range seg.metas {
		if m.mode != segModeFull {
			t.Fatalf("epoch %d shares no key with its predecessor but is diff-coded", e)
		}
	}
	if full := fullCodingSize(t, epochs); len(img) > full+len(epochs) {
		t.Fatalf("segment is %d bytes, full coding %d + %d mode bytes", len(img), full, len(epochs))
	}
}

// TestColdTruncationEveryByte: a segment image cut at every byte offset
// must never panic and never fabricate data — whatever prefix of epochs
// still indexes and decodes must match the original exactly.
func TestColdTruncationEveryByte(t *testing.T) {
	const n = 6
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(2000+e), 0).UTC()
		epochs[e] = sortedEpoch(e, 40)
	}
	img := buildSegment(t, SegmentCold, 2, times, epochs)

	for cut := 0; cut <= len(img); cut++ {
		seg, err := OpenSegmentBytes(img[:cut])
		if err != nil {
			continue // rejected outright: fine
		}
		for e := 0; e < seg.Epochs(); e++ {
			got, err := seg.AppendEpochAt(e, nil)
			if err != nil {
				break
			}
			if !got.Time.Equal(times[e]) || !slices.Equal(got.Records, epochs[e]) {
				t.Fatalf("cut=%d epoch %d decoded to different data", cut, e)
			}
		}
		seg.Close()
	}
}

// TestColdCorruptionNoPanic flips every byte of a segment image in turn;
// open/decode may fail or (for immaterial flips inside compressed
// padding) succeed, but must never panic or read out of bounds.
func TestColdCorruptionNoPanic(t *testing.T) {
	const n = 4
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(3000+e), 0).UTC()
		epochs[e] = sortedEpoch(e, 30)
	}
	img := buildSegment(t, SegmentCold, 2, times, epochs)

	mut := make([]byte, len(img))
	for off := 0; off < len(img); off++ {
		copy(mut, img)
		mut[off] ^= 0xFF
		seg, err := OpenSegmentBytes(mut)
		if err != nil {
			continue
		}
		for e := 0; e < seg.Epochs(); e++ {
			if _, err := seg.AppendEpochAt(e, nil); err != nil {
				break
			}
		}
		seg.Close()
	}
}

// rawEpoch is one epoch of a hand-assembled segment: whatever key and
// count streams the test wants a reader to face.
type rawEpoch struct {
	mode   byte
	count  int
	keys   []byte
	counts []byte
}

// rawSegment frames the epochs as one block of a cold segment.
func rawSegment(t testing.TB, epochs ...rawEpoch) []byte {
	t.Helper()
	frame := binary.AppendUvarint(nil, uint64(len(epochs)))
	var keys, counts []byte
	for _, ep := range epochs {
		frame = append(frame, ep.mode)
		for _, v := range []int{1, ep.count, len(ep.keys), len(ep.counts), 1, ep.count, ep.count} {
			frame = binary.AppendUvarint(frame, uint64(v))
		}
		keys = append(keys, ep.keys...)
		counts = append(counts, ep.counts...)
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(keys)
	fw.Write(counts)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	frame = append(frame, comp.Bytes()...)
	img := append([]byte(segMagic), segVersion, byte(SegmentCold))
	img = binary.AppendUvarint(img, uint64(len(frame)))
	return append(img, frame...)
}

// kw is the test key with first sort word w1.
func kw(w1 uint64) keyWords { return keyWords{w1, 6} }

// fullKeys codes keys in full.
func fullKeys(keys ...keyWords) []byte {
	var out []byte
	var prev keyWords
	for _, k := range keys {
		out = appendKey(out, prev, k)
		prev = k
	}
	return out
}

// diffRun codes one (dropped, carried, inserted) run, the inserted keys
// delta-coded on from prev.
func diffRun(dropped, carried int, prev keyWords, inserted ...keyWords) []byte {
	out := binary.AppendUvarint(nil, uint64(dropped))
	out = binary.AppendUvarint(out, uint64(carried))
	out = binary.AppendUvarint(out, uint64(len(inserted)))
	for _, k := range inserted {
		out = appendKey(out, prev, k)
		prev = k
	}
	return out
}

// hostileSegments are well-framed segments whose second epoch's op stream
// lies: each must fail to decode. The reference epoch holds keys 10, 20, 30.
func hostileSegments(t testing.TB) map[string][]byte {
	ones := func(n int) []byte { return bytes.Repeat([]byte{1}, n) }
	ref := rawEpoch{segModeFull, 3, fullKeys(kw(10), kw(20), kw(30)), ones(3)}
	second := func(count int, keys ...[]byte) []byte {
		return rawSegment(t, ref, rawEpoch{segModeDiff, count, slices.Concat(keys...), ones(count)})
	}
	return map[string][]byte{
		"carried run past the reference":   second(4, diffRun(0, 4, kw(0))),
		"dropped run past the reference":   second(0, diffRun(4, 0, kw(0))),
		"carried after dropping it all":    second(1, diffRun(3, 1, kw(0))),
		"diff in the block's first epoch":  rawSegment(t, rawEpoch{segModeDiff, 1, diffRun(0, 0, kw(0), kw(10)), ones(1)}),
		"inserted keys descending":         second(3, diffRun(0, 1, kw(10), kw(15), kw(12)), diffRun(2, 0, kw(12))),
		"inserted key before its carried":  second(2, diffRun(0, 1, kw(10), kw(5)), diffRun(2, 0, kw(5))),
		"inserted key past the next carry": second(3, diffRun(0, 1, kw(10), kw(25)), diffRun(0, 1, kw(20)), diffRun(1, 0, kw(20))),
		"inserted key repeats a carried":   second(2, diffRun(0, 1, kw(10), kw(10)), diffRun(2, 0, kw(10))),
		"inserted key repeats itself":      second(3, diffRun(0, 1, kw(10), kw(15), kw(15)), diffRun(2, 0, kw(15))),
		"fewer keys than the header says":  second(3, diffRun(1, 2, kw(0))),
		"more keys than the header says":   second(2, diffRun(0, 3, kw(0))),
		"reference keys unaccounted for":   second(2, diffRun(0, 2, kw(0))),
		"empty run":                        second(3, diffRun(0, 0, kw(0)), diffRun(0, 3, kw(0))),
		"full epoch descending":            rawSegment(t, rawEpoch{segModeFull, 2, fullKeys(kw(20), kw(10)), ones(2)}),
	}
}

// TestColdHostileDiffs: every lie an op stream can tell is an error, never
// a panic and never an epoch out of order; and the same builder's honest
// stream decodes, so the errors are the lies' doing.
func TestColdHostileDiffs(t *testing.T) {
	for name, img := range hostileSegments(t) {
		seg, err := OpenSegmentBytes(img)
		if err != nil {
			continue // refused at open: fine
		}
		for e := 0; e < seg.Epochs(); e++ {
			if _, err = seg.AppendEpochAt(e, nil); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		seg.Close()
	}

	// Drop 10, carry 20, insert 25, carry 30, insert 40.
	honest := rawSegment(t,
		rawEpoch{segModeFull, 3, fullKeys(kw(10), kw(20), kw(30)), []byte{1, 2, 3}},
		rawEpoch{segModeDiff, 4, slices.Concat(diffRun(1, 1, kw(20), kw(25)), diffRun(0, 1, kw(30), kw(40))), []byte{4, 5, 6, 7}})
	seg, err := OpenSegmentBytes(honest)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	got, err := seg.AppendEpochAt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []flow.Record
	for i, w1 := range []uint64{20, 25, 30, 40} {
		key, _ := keyFromWords(w1, 6)
		want = append(want, flow.Record{Key: key, Count: uint32(4 + i)})
	}
	if !slices.Equal(got.Records, want) {
		t.Fatalf("honest diff decoded to %v, want %v", got.Records, want)
	}
}

// TestSegmentVersion1Refused: version 1 segments (every epoch coded in
// full, columnar) have no decoder any more; opening one must say so
// rather than misread it.
func TestSegmentVersion1Refused(t *testing.T) {
	_, err := OpenSegmentBytes([]byte(segMagic + "\x01\x00"))
	if err == nil || !strings.Contains(err.Error(), "unsupported segment version 1") {
		t.Fatalf("version 1 header: err = %v, want unsupported segment version 1", err)
	}
	path := filepath.Join(t.TempDir(), "v1.cseg")
	if err := os.WriteFile(path, []byte(segMagic+"\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); err == nil || !strings.Contains(err.Error(), "unsupported segment version 1") {
		t.Fatalf("version 1 file: err = %v, want unsupported segment version 1", err)
	}
}

// FuzzColdDecode fuzzes the full segment open + decode path: arbitrary
// bytes must never panic, and whatever decodes must hold its declared
// record count, in packed-key order, and no more records than a stream of
// that size could possibly inflate to.
func FuzzColdDecode(f *testing.F) {
	// Seeds: a segment with diff-coded epochs across block boundaries, cuts
	// of it, bare headers of both versions, and every hostile op stream.
	epochs := carriedEpochs(rand.New(rand.NewPCG(4, 2)), 5, 25, 0.8)
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	sw.SetBlockEpochs(3)
	for i, recs := range epochs {
		if err := sw.Add(SegmentEpoch{Time: time.Unix(int64(4000+i), 0), Records: recs}); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:len(img)-1])
	f.Add([]byte(segMagic + "\x02\x00"))
	f.Add([]byte(segMagic + "\x01\x00"))
	f.Add([]byte{})
	for _, hostile := range hostileSegments(f) {
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := OpenSegmentBytes(data)
		if err != nil {
			return
		}
		defer seg.Close()
		var rec []flow.Record
		for e := 0; e < seg.Epochs(); e++ {
			ep, err := seg.AppendEpochAt(e, rec[:0])
			if err != nil {
				break
			}
			rec = ep.Records
			if len(ep.Records) != seg.EpochLen(e) {
				t.Fatalf("epoch %d decoded %d records, header says %d", e, len(ep.Records), seg.EpochLen(e))
			}
			if len(ep.Records) > 1032*len(data)+64 {
				t.Fatalf("epoch %d: %d records out of %d bytes", e, len(ep.Records), len(data))
			}
			for i := 1; i < len(ep.Records); i++ {
				if lessWords(ep.Records[i].Key, ep.Records[i-1].Key) {
					t.Fatalf("epoch %d: records %d and %d out of key order", e, i-1, i)
				}
			}
		}
	})
}

// TestRollupAccuracy: a rollup epoch must hold exactly the true top-K of
// the merged source epochs (by summed count) and exact aggregate totals,
// in key-sorted order.
func TestRollupAccuracy(t *testing.T) {
	const n, recs, k = 8, 300, 20
	rng := rand.New(rand.NewPCG(7, 9))
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	truth := map[flow.Key]uint64{}
	var totalRecords, totalPackets uint64
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(5000+e*60), 0).UTC()
		eps := sortedEpoch(0, recs) // stable keyset
		for i := range eps {
			eps[i].Count = uint32(1 + rng.IntN(10000))
			truth[eps[i].Key] += uint64(eps[i].Count)
			totalPackets += uint64(eps[i].Count)
		}
		totalRecords += uint64(len(eps))
		epochs[e] = eps
	}
	seg, err := OpenSegmentBytes(buildSegment(t, SegmentCold, 3, times, epochs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	rolled, err := buildRollup(seg, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.Records) != k {
		t.Fatalf("rollup kept %d records, want %d", len(rolled.Records), k)
	}
	if rolled.Span != n || rolled.TotalRecords != totalRecords || rolled.TotalPackets != totalPackets {
		t.Fatalf("rollup totals span=%d recs=%d pkts=%d, want %d/%d/%d",
			rolled.Span, rolled.TotalRecords, rolled.TotalPackets, n, totalRecords, totalPackets)
	}
	if !rolled.Time.Equal(times[0]) {
		t.Fatalf("rollup time %v, want first source epoch %v", rolled.Time, times[0])
	}

	// The kept set must be exactly the truth's top-K multiset of counts.
	counts := make([]uint64, 0, len(truth))
	for _, c := range truth {
		counts = append(counts, c)
	}
	slices.SortFunc(counts, func(a, b uint64) int {
		if a > b {
			return -1
		} else if a < b {
			return 1
		}
		return 0
	})
	floor := counts[k-1]
	for i, r := range rolled.Records {
		want := truth[r.Key]
		if uint64(r.Count) != want {
			t.Fatalf("rollup record %d count %d, truth %d", i, r.Count, want)
		}
		if want < floor {
			t.Fatalf("rollup kept key with count %d below top-%d floor %d", want, k, floor)
		}
		if i > 0 && !lessWords(rolled.Records[i-1].Key, r.Key) {
			t.Fatalf("rollup records not key-sorted at %d", i)
		}
	}

	// Round-trip through a rollup segment keeps the tier metadata.
	rimg := bytes.Buffer{}
	sw := NewSegmentWriter(&rimg, SegmentRollup)
	if err := sw.Add(rolled); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rseg, err := OpenSegmentBytes(rimg.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer rseg.Close()
	info := rseg.EpochInfo(0)
	if info.Tier != "rollup" || info.Span != n || info.TotalRecords != totalRecords || info.TotalPackets != totalPackets {
		t.Fatalf("rollup segment info = %+v", info)
	}
	got, err := rseg.AppendEpochAt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Records, rolled.Records) {
		t.Fatal("rollup segment decode diverges")
	}
}

// TestSegmentEmpty: a closed-empty segment is valid and holds nothing.
func TestSegmentEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if seg.Epochs() != 0 {
		t.Fatalf("empty segment has %d epochs", seg.Epochs())
	}
	seg.Close()
}

// TestSegmentRejectsUnsorted: out-of-order epoch timestamps are refused
// at write time, not discovered at read time.
func TestSegmentRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	if err := sw.Add(SegmentEpoch{Time: time.Unix(100, 0), Records: nil}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(SegmentEpoch{Time: time.Unix(99, 0), Records: nil}); err == nil {
		t.Fatal("out-of-order epoch accepted")
	}
}

// TestOpenAutoDetect: Open returns a flat mapped source for a file and a
// tiered source for a directory, both through EpochSource.
func TestOpenAutoDetect(t *testing.T) {
	dir := t.TempDir()
	filePath := filepath.Join(dir, "flat.frec")
	writeStoreFile(t, filePath, 3)

	src, err := Open(filePath)
	if err != nil {
		t.Fatal(err)
	}
	if src.Epochs() != 3 {
		t.Fatalf("flat source epochs = %d", src.Epochs())
	}
	if _, ok := src.(*Mapped); !ok {
		t.Fatalf("flat path opened as %T", src)
	}
	src.Close()

	tdir := filepath.Join(dir, "tiered")
	tw, _, err := OpenTiered(tdir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := tw.WriteEpoch(time.Unix(int64(100+e), 0), epochRecords(e, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err = Open(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*TieredSource); !ok {
		t.Fatalf("dir path opened as %T", src)
	}
	if src.Epochs() != 3 {
		t.Fatalf("tiered source epochs = %d", src.Epochs())
	}
	src.Close()
	_ = os.Remove(filePath)
}

// TestColdRejectsImplausibleRawLen: a block whose headers declare far
// more raw data than its DEFLATE stream could possibly inflate (the
// format's ~1032x ceiling) must be rejected at open, before blockRaw
// would allocate the declared size — a tiny hostile file must not be
// able to trigger a multi-gigabyte allocation.
func TestColdRejectsImplausibleRawLen(t *testing.T) {
	frame := binary.AppendUvarint(nil, 1) // one epoch in the block
	frame = append(frame, segModeFull)
	frame = binary.AppendUvarint(frame, uint64(time.Unix(1700000000, 0).UnixNano()))
	frame = binary.AppendUvarint(frame, 1)     // record count
	frame = binary.AppendUvarint(frame, 1<<30) // keysLen: passes the per-field cap
	frame = binary.AppendUvarint(frame, 1<<30) // countsLen
	frame = binary.AppendUvarint(frame, 1)     // span
	frame = binary.AppendUvarint(frame, 1)     // totalRecords
	frame = binary.AppendUvarint(frame, 1)     // totalPackets
	frame = append(frame, 0xde, 0xad)          // 2-byte "compressed" stream

	data := append([]byte(segMagic), segVersion, byte(SegmentCold))
	data = binary.AppendUvarint(data, uint64(len(frame)))
	data = append(data, frame...)

	if _, err := OpenSegmentBytes(data); err == nil {
		t.Fatal("segment declaring 2 GiB of raw data from a 2-byte stream opened without error")
	}
}
