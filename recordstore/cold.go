// Cold segments: the compressed storage tier. A segment file holds a run
// of epochs re-encoded for density rather than append speed. The hot
// format already delta/varint-codes each epoch in isolation; the cold
// format exploits the redundancy *between* epochs — HashFlow keeps the
// flows that persist, so a vantage's keyset barely changes from one epoch
// to the next.
//
// Epochs are grouped into blocks. The first epoch of a block carries its
// sorted key stream in full; every later one carries a merge-diff against
// the epoch before it: runs of (dropped, carried, inserted) reference keys,
// with only the inserted keys spelled out. An epoch whose diff would not
// be smaller than its full coding (keys that do not carry over, or
// duplicate keys, which a merge cannot express) is coded in full instead,
// so the format never costs more than a mode byte per epoch over coding
// every epoch alone. Counts are a plain varint per record. Per-epoch
// headers (mode, timestamp, counts, stream lengths) stay outside the
// compressed stream, so listing a segment's epochs and answering
// time-range queries never inflates anything; decoding one epoch inflates
// only its block and replays the diffs since the block's last full epoch.
// Within a block the streams are laid out columnar: every epoch's key
// stream, then every epoch's count stream.
//
// File layout (version 2; OpenSegment refuses any other):
//
//	magic "FSEG" | version u8 | kind u8 (cold | rollup)
//	per block: uvarint frame length, then
//	    uvarint epoch count
//	    per epoch: mode u8 (full | diff) | uvarint nanos delta | count |
//	               keysLen | countsLen | span | totalRecords | totalPackets
//	    DEFLATE stream of keys_1..keys_E || counts_1..counts_E
//
//	keys, full: per record uvarint w1-prev.w1, uvarint w2^prev.w2
//	keys, diff: until both epochs are used up,
//	    uvarint dropped | carried | inserted   (runs over the previous
//	        epoch's keys: skip, copy, then new keys sorting before the next)
//	    per inserted key: the two uvarints above, prev being the last key
//	        emitted, carried or inserted
//	counts: per record uvarint count
//
// Segments are immutable: they are written to a temp file, fsynced, and
// renamed into place by the compactor, so a reader never sees a partial
// one. Any structural damage is therefore corruption, not a live tail —
// OpenSegment rejects it outright.
package recordstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/flow"
)

// Cold-format constants.
const (
	segMagic   = "FSEG"
	segVersion = 2

	// DefaultBlockEpochs bounds how many epochs share one DEFLATE stream
	// and one chain of key diffs: a random epoch read inflates this many
	// epochs and replays at most one fewer diffs. Larger blocks amortize
	// the block's one fully coded epoch over more diffs.
	DefaultBlockEpochs = 16
	// defaultBlockBytes flushes a block early once its raw streams reach
	// this size, keeping the inflate cost of a point read bounded for
	// very large epochs. A diff-coded epoch is a fraction of a full one,
	// so the bound leaves room for a full-size first epoch plus its diffs.
	defaultBlockBytes = 4 << 20

	// Per-epoch key-plane modes.
	segModeFull = 0 // every key delta/xor-coded against the one before it
	segModeDiff = 1 // a merge-diff against the previous epoch of the block
)

// SegmentKind distinguishes lossless cold segments from downsampled
// rollups.
type SegmentKind uint8

const (
	// SegmentCold holds epochs byte-equivalent to their hot originals.
	SegmentCold SegmentKind = iota
	// SegmentRollup holds downsampled epochs: each entry is the exact
	// top-k of a run of source epochs plus exact aggregate totals, with
	// the per-flow tail dropped.
	SegmentRollup
)

// String names the kind the way the manifest spells it.
func (k SegmentKind) String() string {
	if k == SegmentRollup {
		return "rollup"
	}
	return "cold"
}

// ErrNotSegment is returned when data does not begin with the segment
// magic.
var ErrNotSegment = errors.New("recordstore: not a cold segment")

// SegmentEpoch is one epoch handed to a SegmentWriter. Records must be
// sorted by packed key — the order hot stores persist and decode them in.
type SegmentEpoch struct {
	// Time is the epoch's export timestamp.
	Time time.Time
	// Records are the epoch's flow records in packed-key order.
	Records []flow.Record
	// Span is how many source epochs this entry folds together; 0 or 1
	// means a plain epoch.
	Span int
	// TotalRecords / TotalPackets are the aggregate totals across the
	// folded source epochs. Zero values are filled from Records, so plain
	// cold epochs never set them.
	TotalRecords uint64
	TotalPackets uint64
}

// keyWords is a flow key packed into its two sort words.
type keyWords struct{ w1, w2 uint64 }

func (a keyWords) less(b keyWords) bool {
	return a.w1 < b.w1 || (a.w1 == b.w1 && a.w2 < b.w2)
}

// appendKey appends k delta/xor-coded against prev, the per-key coding
// both modes share.
func appendKey(dst []byte, prev, k keyWords) []byte {
	dst = binary.AppendUvarint(dst, k.w1-prev.w1)
	return binary.AppendUvarint(dst, k.w2^prev.w2)
}

// SegmentWriter encodes epochs into the cold segment format. Epochs
// accumulate into blocks that are compressed and framed on rotation;
// Close flushes the final block. Not safe for concurrent use.
type SegmentWriter struct {
	w    io.Writer
	kind SegmentKind

	blockEpochs int
	blockBytes  int

	started bool
	err     error

	// Pending block state.
	hdr    []byte // per-epoch headers
	keys   []byte // concatenated key streams
	counts []byte // concatenated count streams
	epochs int    // epochs in the pending block
	last   int64  // nanos of the last epoch accepted (for header deltas)

	// Key words of the epoch being added and of the one before it in the
	// pending block, the diff's reference. refStrict: ref has no duplicate
	// keys, so a merge against it is exact.
	cur, ref  []keyWords
	refStrict bool

	comp  bytes.Buffer
	flate *flate.Writer
	frame []byte
}

// NewSegmentWriter builds a writer emitting kind-flavored segments to w.
func NewSegmentWriter(w io.Writer, kind SegmentKind) *SegmentWriter {
	return &SegmentWriter{
		w:           w,
		kind:        kind,
		blockEpochs: DefaultBlockEpochs,
		blockBytes:  defaultBlockBytes,
	}
}

// SetBlockEpochs overrides how many epochs share one compression block.
func (sw *SegmentWriter) SetBlockEpochs(n int) {
	if n > 0 {
		sw.blockEpochs = n
	}
}

// Add appends one epoch to the segment. Epoch timestamps must be
// non-decreasing across Add calls, and each epoch's records sorted by
// packed key; either violation is refused, since no reader would accept
// the result.
func (sw *SegmentWriter) Add(ep SegmentEpoch) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		hdr := append([]byte(segMagic), segVersion, byte(sw.kind))
		if _, err := sw.w.Write(hdr); err != nil {
			return sw.fail(fmt.Errorf("recordstore: write segment header: %w", err))
		}
		sw.started = true
	}
	// Timestamps are delta-coded against the previous epoch across block
	// boundaries; the first header's delta base is zero, so it carries the
	// absolute timestamp.
	nanos := ep.Time.UnixNano()
	if nanos < sw.last {
		return sw.fail(fmt.Errorf("recordstore: segment epochs out of order (%d after %d)", nanos, sw.last))
	}

	span := ep.Span
	if span <= 0 {
		span = 1
	}
	totalRecords := ep.TotalRecords
	if totalRecords == 0 {
		totalRecords = uint64(len(ep.Records))
	}

	// Pack the keys into sort words, sizing the full coding on the way.
	cur := slices.Grow(sw.cur[:0], len(ep.Records))
	strict, fullLen := true, 0
	var prev keyWords
	for i, r := range ep.Records {
		var k keyWords
		k.w1, k.w2 = r.Key.Words()
		if i > 0 && !prev.less(k) {
			if k.less(prev) {
				return sw.fail(fmt.Errorf("recordstore: segment epoch records not sorted by key (record %d)", i))
			}
			strict = false
		}
		fullLen += uvarintLen(k.w1-prev.w1) + uvarintLen(k.w2^prev.w2)
		cur = append(cur, k)
		prev = k
	}
	sw.cur = cur

	// Key plane: a diff against the previous epoch of the block when that
	// is smaller, the full coding otherwise (and always for the block's
	// first epoch, which has no reference).
	keysStart, countsStart := len(sw.keys), len(sw.counts)
	mode := byte(segModeFull)
	if sw.epochs > 0 && strict && sw.refStrict {
		sw.keys = appendKeyDiff(sw.keys, sw.ref, cur)
		if len(sw.keys)-keysStart < fullLen {
			mode = segModeDiff
		} else {
			sw.keys = sw.keys[:keysStart]
		}
	}
	if mode == segModeFull {
		prev = keyWords{}
		for _, k := range cur {
			sw.keys = appendKey(sw.keys, prev, k)
			prev = k
		}
	}
	totalPackets := ep.TotalPackets
	for _, r := range ep.Records {
		sw.counts = binary.AppendUvarint(sw.counts, uint64(r.Count))
		if ep.TotalPackets == 0 {
			totalPackets += uint64(r.Count)
		}
	}
	sw.ref, sw.cur, sw.refStrict = cur, sw.ref, strict

	sw.hdr = append(sw.hdr, mode)
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(nanos-sw.last))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(ep.Records)))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(sw.keys)-keysStart))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(sw.counts)-countsStart))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(span))
	sw.hdr = binary.AppendUvarint(sw.hdr, totalRecords)
	sw.hdr = binary.AppendUvarint(sw.hdr, totalPackets)
	sw.last = nanos
	sw.epochs++

	if sw.epochs >= sw.blockEpochs || len(sw.keys)+len(sw.counts) >= sw.blockBytes {
		return sw.flushBlock()
	}
	return nil
}

// appendKeyDiff appends cur's key plane coded as a merge-diff against ref.
// Both must be strictly ascending.
func appendKeyDiff(dst []byte, ref, cur []keyWords) []byte {
	var prev keyWords
	i, j := 0, 0
	for i < len(ref) || j < len(cur) {
		i0 := i
		for i < len(ref) && (j == len(cur) || ref[i].less(cur[j])) {
			i++
		}
		dropped := i - i0
		i0 = i
		for i < len(ref) && j < len(cur) && ref[i] == cur[j] {
			i++
			j++
		}
		carried := i - i0
		if carried > 0 {
			prev = cur[j-1]
		}
		j0 := j
		for j < len(cur) && (i == len(ref) || cur[j].less(ref[i])) {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(dropped))
		dst = binary.AppendUvarint(dst, uint64(carried))
		dst = binary.AppendUvarint(dst, uint64(j-j0))
		for _, k := range cur[j0:j] {
			dst = appendKey(dst, prev, k)
			prev = k
		}
	}
	return dst
}

// flushBlock compresses and frames the pending epochs.
func (sw *SegmentWriter) flushBlock() error {
	if sw.epochs == 0 {
		return nil
	}
	sw.comp.Reset()
	if sw.flate == nil {
		fw, err := flate.NewWriter(&sw.comp, flate.DefaultCompression)
		if err != nil {
			return sw.fail(err)
		}
		sw.flate = fw
	} else {
		sw.flate.Reset(&sw.comp)
	}
	if _, err := sw.flate.Write(sw.keys); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.flate.Write(sw.counts); err != nil {
		return sw.fail(err)
	}
	if err := sw.flate.Close(); err != nil {
		return sw.fail(err)
	}

	sw.frame = sw.frame[:0]
	sw.frame = binary.AppendUvarint(sw.frame, uint64(sw.epochs))
	sw.frame = append(sw.frame, sw.hdr...)
	sw.frame = append(sw.frame, sw.comp.Bytes()...)

	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(sw.frame)))
	if _, err := sw.w.Write(lenBuf[:n]); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write block frame: %w", err))
	}
	if _, err := sw.w.Write(sw.frame); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write block frame: %w", err))
	}

	sw.hdr = sw.hdr[:0]
	sw.keys = sw.keys[:0]
	sw.counts = sw.counts[:0]
	sw.epochs = 0
	return nil
}

// Close flushes the final block. The header is written even for an
// epoch-less segment so the file is recognizably a (valid, empty) one.
func (sw *SegmentWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		hdr := append([]byte(segMagic), segVersion, byte(sw.kind))
		if _, err := sw.w.Write(hdr); err != nil {
			return sw.fail(err)
		}
		sw.started = true
	}
	return sw.flushBlock()
}

func (sw *SegmentWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// segEpochMeta is one indexed epoch of an open segment.
type segEpochMeta struct {
	nanos        int64
	count        int
	mode         byte
	keysOff      int // offset into the block's raw (inflated) bytes
	keysLen      int
	countsOff    int
	countsLen    int
	block        int
	span         int
	totalRecords uint64
	totalPackets uint64
}

// segBlock is one compression block of an open segment.
type segBlock struct {
	compOff int // offset of the DEFLATE stream in the segment data
	compLen int
	rawLen  int // total inflated length (keys + counts)
}

// Segment is a cold or rollup segment opened for reading. The per-epoch
// index is built once on open without inflating anything; AppendEpochAt
// inflates the target epoch's block and keeps it, along with the epoch's
// keys, so a sequential scan inflates each block once and applies each
// diff once. Safe for concurrent use.
type Segment struct {
	data  []byte
	unmap func() error
	kind  SegmentKind
	metas []segEpochMeta
	blks  []segBlock

	// Decode state, taken from segDecoders on the first decode and handed
	// back by Close; guarded by mu. Queries re-open segments per request,
	// so one block and one epoch of keys capture both sequential scans and
	// repeated point reads without a real cache policy.
	mu  sync.Mutex
	dec *segDecoder
}

// segDecoder is a segment's decode state: an inflater, the one block it
// last inflated, and the key column of the last epoch rebuilt. Pooled,
// because a query opens every segment anew and an inflater alone is a
// 32 KB window plus its Huffman tables.
type segDecoder struct {
	src bytes.Reader
	fr  io.ReadCloser // DEFLATE reader over src; a flate.Resetter

	block int    // block raw holds, or -1
	raw   []byte // the block inflated

	refEpoch  int // epoch whose keys ref holds, or -1
	ref, next []flow.Key
}

var segDecoders = sync.Pool{New: func() any { return &segDecoder{block: -1, refEpoch: -1} }}

// OpenSegment maps and indexes the segment file at path.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("recordstore: map %s: %w", path, err)
	}
	s, err := newSegment(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("recordstore: segment %s: %w", path, err)
	}
	return s, nil
}

// OpenSegmentBytes indexes an in-memory segment image (tests, fuzzing).
func OpenSegmentBytes(data []byte) (*Segment, error) {
	return newSegment(data, nil)
}

func newSegment(data []byte, unmap func() error) (*Segment, error) {
	const hdrLen = len(segMagic) + 2
	if len(data) < hdrLen {
		return nil, ErrNotSegment
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, ErrNotSegment
	}
	if v := data[len(segMagic)]; v != segVersion {
		return nil, fmt.Errorf("unsupported segment version %d", v)
	}
	kind := SegmentKind(data[len(segMagic)+1])
	if kind != SegmentCold && kind != SegmentRollup {
		return nil, fmt.Errorf("unknown segment kind %d", kind)
	}
	s := &Segment{data: data, unmap: unmap, kind: kind}
	if err := s.buildIndex(hdrLen); err != nil {
		return nil, err
	}
	return s, nil
}

// buildIndex walks the block frames, decoding only headers. Segments are
// immutable once renamed into place, so unlike the hot store's live tail
// any structural damage here is fatal for the whole segment.
func (s *Segment) buildIndex(off int) error {
	var lastNanos int64
	for off < len(s.data) {
		frameLen, n := binary.Uvarint(s.data[off:])
		if n <= 0 || frameLen > uint64(len(s.data)) {
			return fmt.Errorf("corrupt block frame at byte %d", off)
		}
		body := off + n
		if body+int(frameLen) > len(s.data) {
			return fmt.Errorf("block frame at byte %d runs past the end", off)
		}
		frame := s.data[body : body+int(frameLen)]

		epochs, hn := binary.Uvarint(frame)
		if hn <= 0 || epochs == 0 || epochs > 1<<20 {
			return fmt.Errorf("corrupt epoch count in block at byte %d", off)
		}
		pos := hn
		var blk segBlock
		first := len(s.metas)
		for i := uint64(0); i < epochs; i++ {
			if pos >= len(frame) {
				return fmt.Errorf("corrupt epoch header %d in block at byte %d", i, off)
			}
			mode := frame[pos]
			pos++
			// A block's first epoch has nothing to be a diff against.
			if mode > segModeDiff || (i == 0 && mode != segModeFull) {
				return fmt.Errorf("bad key mode %d in epoch header %d of block at byte %d", mode, i, off)
			}
			var vals [7]uint64
			for v := range vals {
				x, vn := binary.Uvarint(frame[pos:])
				if vn <= 0 {
					return fmt.Errorf("corrupt epoch header %d in block at byte %d", i, off)
				}
				vals[v] = x
				pos += vn
			}
			// Every record costs at least one count byte (and, coded in
			// full, two key bytes), so the stream lengths bound the record
			// count and, below, the block's compressed size bounds both.
			if vals[1] > vals[3] || vals[2] > 1<<31 || vals[3] > 1<<31 || vals[4] > 1<<28 ||
				(mode == segModeFull && 2*vals[1] > vals[2]) {
				return fmt.Errorf("implausible epoch header %d in block at byte %d", i, off)
			}
			lastNanos += int64(vals[0])
			s.metas = append(s.metas, segEpochMeta{
				nanos:        lastNanos,
				count:        int(vals[1]),
				mode:         mode,
				keysLen:      int(vals[2]),
				countsLen:    int(vals[3]),
				block:        len(s.blks),
				span:         int(vals[4]),
				totalRecords: vals[5],
				totalPackets: vals[6],
			})
			blk.rawLen += int(vals[2]) + int(vals[3])
		}
		// Columnar layout: all key streams first, then all count streams.
		var keysOff int
		for i := range s.metas[first:] {
			s.metas[first+i].keysOff = keysOff
			keysOff += s.metas[first+i].keysLen
		}
		for i := range s.metas[first:] {
			s.metas[first+i].countsOff = keysOff
			keysOff += s.metas[first+i].countsLen
		}
		blk.compOff = body + pos
		blk.compLen = int(frameLen) - pos
		// DEFLATE expands each compressed byte to at most ~1032 raw bytes
		// (a 258-byte match costs no less than two bits), so headers
		// declaring more raw data than the stream could possibly inflate
		// are corruption. Rejecting here keeps blockRaw from allocating a
		// multi-gigabyte buffer on the say-so of a tiny hostile file.
		const maxInflateRatio = 1032
		if blk.rawLen > blk.compLen*maxInflateRatio+64 {
			return fmt.Errorf("block at byte %d declares %d raw bytes from a %d-byte stream", off, blk.rawLen, blk.compLen)
		}
		s.blks = append(s.blks, blk)
		off = body + int(frameLen)
	}
	return nil
}

// Kind reports whether the segment is cold or rollup.
func (s *Segment) Kind() SegmentKind { return s.kind }

// Epochs returns how many epochs the segment holds.
func (s *Segment) Epochs() int { return len(s.metas) }

// EpochTime returns epoch i's timestamp without inflating anything.
func (s *Segment) EpochTime(i int) time.Time {
	return time.Unix(0, s.metas[i].nanos).UTC()
}

// EpochLen returns epoch i's stored record count.
func (s *Segment) EpochLen(i int) int { return s.metas[i].count }

// EpochInfo returns epoch i's tier metadata.
func (s *Segment) EpochInfo(i int) EpochInfo {
	m := s.metas[i]
	return EpochInfo{
		Time:         time.Unix(0, m.nanos).UTC(),
		Records:      m.count,
		Tier:         s.kind.String(),
		Span:         m.span,
		TotalRecords: m.totalRecords,
		TotalPackets: m.totalPackets,
	}
}

// FirstNanos / LastNanos bound the segment's epoch timestamps; zero for
// an empty segment.
func (s *Segment) FirstNanos() int64 {
	if len(s.metas) == 0 {
		return 0
	}
	return s.metas[0].nanos
}

func (s *Segment) LastNanos() int64 {
	if len(s.metas) == 0 {
		return 0
	}
	return s.metas[len(s.metas)-1].nanos
}

// AppendEpochAt decodes epoch i with its records appended to dst. The
// records are exactly the ones the hot-tier decoder yields for the same
// epoch (cold segments) or the rollup's retained top-k (rollup segments),
// in packed-key order.
func (s *Segment) AppendEpochAt(i int, dst []flow.Record) (Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.metas) {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d out of range [0,%d)", i, len(s.metas))
	}
	meta := &s.metas[i]
	if s.dec == nil {
		s.dec = segDecoders.Get().(*segDecoder)
	}
	d := s.dec
	raw, err := s.blockRaw(meta.block)
	if err != nil {
		return Epoch{}, err
	}

	// Bring d.ref to epoch i's keys: from the keys already held when they
	// are an earlier epoch of the same diff chain, else from the chain's
	// fully coded epoch. The block's first epoch is one, so j stays inside
	// the block just inflated.
	j := i
	for j != d.refEpoch && s.metas[j].mode == segModeDiff {
		j--
	}
	if j == d.refEpoch {
		j++
	}
	for ; j <= i; j++ {
		m := &s.metas[j]
		if err := d.stepKeys(m.mode, m.count, raw[m.keysOff:m.keysOff+m.keysLen]); err != nil {
			d.refEpoch = -1
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: %w", j, err)
		}
		d.refEpoch = j
	}

	// Zip the keys with the count plane.
	counts := raw[meta.countsOff : meta.countsOff+meta.countsLen]
	base := len(dst)
	dst = slices.Grow(dst, meta.count)[:base+meta.count]
	p := 0
	for r, key := range d.ref {
		cnt, n := binary.Uvarint(counts[p:])
		if n <= 0 || cnt > 0xFFFFFFFF {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: corrupt count stream at record %d", i, r)
		}
		p += n
		dst[base+r] = flow.Record{Key: key, Count: uint32(cnt)}
	}
	if p != len(counts) {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: %d trailing count bytes", i, len(counts)-p)
	}
	return Epoch{Time: time.Unix(0, meta.nanos).UTC(), Records: dst}, nil
}

// stepKeys rebuilds one epoch's key column from its key stream ks, count
// keys in all, and leaves it in d.ref. In diff mode d.ref must hold the
// previous epoch's keys on entry. Whatever the stream says, the result is
// in packed-key order or an error.
func (d *segDecoder) stepKeys(mode byte, count int, ks []byte) error {
	next := slices.Grow(d.next[:0], count)
	var err error
	if mode == segModeFull {
		next, ks, _, err = appendKeys(next, ks, count, keyWords{}, false)
	} else {
		next, ks, err = applyKeyDiff(next, d.ref, ks, count)
	}
	d.next = next
	if err != nil {
		return err
	}
	if len(next) != count || len(ks) != 0 {
		return fmt.Errorf("key stream yields %d keys with %d bytes left, header says %d keys", len(next), len(ks), count)
	}
	d.ref, d.next = next, d.ref
	return nil
}

// appendKeys decodes n delta/xor-coded keys from ks onto dst, the first
// against prev. Keys must ascend from prev: strictly when strict (a diff's
// inserted keys, which may repeat neither each other nor a carried key),
// else duplicates pass (a fully coded epoch stores what it was given).
func appendKeys(dst []flow.Key, ks []byte, n int, prev keyWords, strict bool) ([]flow.Key, []byte, keyWords, error) {
	for ; n > 0; n-- {
		d1, n1 := binary.Uvarint(ks)
		if n1 <= 0 {
			return dst, ks, prev, errors.New("corrupt key stream")
		}
		x2, n2 := binary.Uvarint(ks[n1:])
		if n2 <= 0 {
			return dst, ks, prev, errors.New("corrupt key stream")
		}
		ks = ks[n1+n2:]
		k := keyWords{prev.w1 + d1, prev.w2 ^ x2}
		// The zero key, equal to the initial prev, is a legal first key.
		if k.w1 < prev.w1 || (d1 == 0 && (k.w2 < prev.w2 || (strict && x2 == 0 && len(dst) > 0))) {
			return dst, ks, prev, errors.New("keys out of order")
		}
		key, err := keyFromWords(k.w1, k.w2)
		if err != nil {
			return dst, ks, prev, err
		}
		dst = append(dst, key)
		prev = k
	}
	return dst, ks, prev, nil
}

// applyKeyDiff decodes a merge-diff against ref onto dst: runs of dropped
// and carried reference keys, each followed by the keys inserted before
// the next reference key. count caps what it will emit.
func applyKeyDiff(dst, ref []flow.Key, ks []byte, count int) ([]flow.Key, []byte, error) {
	var prev keyWords
	var err error
	for len(ks) > 0 {
		var run [3]uint64 // dropped, carried, inserted
		for v := range run {
			x, n := binary.Uvarint(ks)
			if n <= 0 {
				return dst, ks, errors.New("corrupt diff run")
			}
			run[v] = x
			ks = ks[n:]
		}
		dropped, carried, inserted := run[0], run[1], run[2]
		if left := uint64(len(ref)); dropped > left || carried > left-dropped {
			return dst, ks, errors.New("diff run past the end of the reference epoch")
		}
		if room := uint64(count - len(dst)); carried > room || inserted > room-carried {
			return dst, ks, errors.New("diff runs exceed the epoch's record count")
		}
		if dropped|carried|inserted == 0 {
			return dst, ks, errors.New("empty diff run")
		}
		ref = ref[dropped:]
		if carried > 0 {
			var first keyWords
			first.w1, first.w2 = ref[0].Words()
			if len(dst) > 0 && !prev.less(first) {
				return dst, ks, errors.New("carried key out of order")
			}
			dst = append(dst, ref[:carried]...)
			prev.w1, prev.w2 = ref[carried-1].Words()
			ref = ref[carried:]
		}
		if dst, ks, prev, err = appendKeys(dst, ks, int(inserted), prev, true); err != nil {
			return dst, ks, err
		}
	}
	if len(ref) != 0 {
		return dst, ks, fmt.Errorf("diff leaves %d reference keys unaccounted for", len(ref))
	}
	return dst, ks, nil
}

// Range mirrors Mapped.Range over the segment's epochs.
func (s *Segment) Range(t0, t1 time.Time) (lo, hi int) {
	lo = s.searchNanos(t0.UnixNano())
	if t1.IsZero() {
		return lo, len(s.metas)
	}
	return lo, s.searchNanos(t1.UnixNano())
}

func (s *Segment) searchNanos(nanos int64) int {
	lo, hi := 0, len(s.metas)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.metas[mid].nanos < nanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blockRaw returns block b inflated, serving repeats from the decoder's
// one slot. Caller holds s.mu and has set s.dec.
func (s *Segment) blockRaw(b int) ([]byte, error) {
	d := s.dec
	if d.block == b {
		return d.raw, nil
	}
	blk := s.blks[b]
	d.block = -1
	d.src.Reset(s.data[blk.compOff : blk.compOff+blk.compLen])
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, fmt.Errorf("recordstore: inflate block %d: %w", b, err)
	}
	if cap(d.raw) < blk.rawLen {
		d.raw = make([]byte, blk.rawLen)
	}
	d.raw = d.raw[:blk.rawLen]
	if _, err := io.ReadFull(d.fr, d.raw); err != nil {
		return nil, fmt.Errorf("recordstore: inflate block %d: %w", b, err)
	}
	// A stream with trailing garbage decodes the declared length fine; a
	// short one already failed above. Confirm it ends where the headers
	// said it would.
	var tail [1]byte
	if n, _ := d.fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("recordstore: inflate block %d: stream longer than declared", b)
	}
	d.block = b
	return d.raw, nil
}

// Size returns the segment's byte length.
func (s *Segment) Size() int { return len(s.data) }

// Close releases the mapping.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = nil
	s.metas = nil
	s.blks = nil
	if d := s.dec; d != nil {
		// Drop every reference to this segment before the next one takes
		// the decoder over.
		d.src.Reset(nil)
		d.block, d.refEpoch = -1, -1
		segDecoders.Put(d)
		s.dec = nil
	}
	if s.unmap != nil {
		u := s.unmap
		s.unmap = nil
		return u()
	}
	return nil
}
