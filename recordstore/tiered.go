// Tiered store: a directory combining the mmap hot tier with compressed
// cold segments and downsampled rollups behind one EpochSource.
//
// Layout:
//
//	<dir>/hot.frec      — the append-only hot store (FREC, PR 7 recovery)
//	<dir>/seg-%06d.cseg — immutable cold segments (FSEG, lossless)
//	<dir>/seg-%06d.rseg — immutable rollup segments (FSEG, downsampled)
//	<dir>/MANIFEST.json — which segments are live + the hot/cold cutoff
//
// The manifest is the source of truth for segment liveness. Every
// mutation follows the same crash ordering: write the new file to a
// temp name, fsync, rename into place, fsync the directory, THEN
// publish it in a new manifest (itself temp+fsync+rename) and only then
// delete anything it replaced. A crash between any two steps leaves
// either an unreferenced file (garbage-collected at the next
// read-write open) or duplicate data (epochs present in both a segment
// and the hot file, deduplicated at read time by the manifest's
// cutoff_nanos: hot epochs at or before it are already migrated and
// skipped). No step ever overwrites live data in place.
//
// Compaction runs in the writer's process but off the write path: the
// expensive part (decode + recompress) works from a private mmap
// snapshot, and only the final hot-file rewrite-and-swap holds the
// write lock. That held duration is the compaction stall the store
// reports.
package recordstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/flow"
	"repro/netwide"
)

// Tiered directory file names.
const (
	hotFileName      = "hot.frec"
	manifestFileName = "MANIFEST.json"
	coldSegExt       = ".cseg"
	rollupSegExt     = ".rseg"
	manifestVersion  = 1
)

// TieredOptions configure a read-write tiered store.
type TieredOptions struct {
	// HotEpochs is how many recent epochs stay in the mmap hot tier.
	// Compaction migrates everything older into cold segments. Default 64.
	HotEpochs int
	// CompactEvery is the compaction cadence: once the hot tier holds
	// HotEpochs+CompactEvery epochs, the surplus is migrated (so each
	// cold segment holds about CompactEvery epochs). 0 disables automatic
	// compaction — Compact can still be called explicitly. Default is
	// HotEpochs when automatic compaction is wanted.
	CompactEvery int
	// Retain bounds how long lossless data is kept, measured against the
	// newest epoch's data timestamp (not wall clock, so replayed histories
	// behave deterministically). Cold segments entirely older than the
	// window are downsampled into rollups. 0 keeps everything lossless.
	Retain time.Duration
	// RollupK is how many exact top-count flows each rollup epoch keeps
	// from the epochs it folds. Default 1024.
	RollupK int
	// Sync is the hot writer's durability policy (see SyncPolicy).
	Sync SyncPolicy
	// BlockEpochs overrides the cold-segment compression block size.
	BlockEpochs int
	// OnCompact, when set, observes every compaction (automatic or
	// explicit) with its stats and error. Called from the compaction
	// goroutine.
	OnCompact func(CompactStats, error)
}

func (o *TieredOptions) fill() {
	if o.HotEpochs <= 0 {
		o.HotEpochs = 64
	}
	if o.RollupK <= 0 {
		o.RollupK = 1024
	}
}

// CompactStats reports what one Compact pass did.
type CompactStats struct {
	// Migrated is how many epochs moved from the hot tier into a new cold
	// segment (0 when the hot tier was within its window).
	Migrated int
	// RawBytes / SegmentBytes are the migrated epochs' hot-encoding size
	// and the resulting segment file size — the compression ratio.
	RawBytes     int64
	SegmentBytes int64
	// RolledUp is how many cold segments the retention pass downsampled.
	RolledUp int
	// StallNs is how long the hot-file rewrite held the write lock — the
	// only part of compaction the write path can block on.
	StallNs int64
}

// manifest is the on-disk segment index.
type manifest struct {
	Version     int            `json:"version"`
	Seq         uint64         `json:"seq"`
	CutoffNanos int64          `json:"cutoff_nanos"`
	Segments    []segmentEntry `json:"segments"`
}

// segmentEntry is one live segment: enough metadata to answer "which
// segments can hold epochs in [t0,t1)" without opening any of them.
type segmentEntry struct {
	File       string `json:"file"`
	Kind       string `json:"kind"`
	Epochs     int    `json:"epochs"`
	FromNanos  int64  `json:"from_nanos"`
	ToNanos    int64  `json:"to_nanos"`
	Bytes      int64  `json:"bytes"`
	SpanEpochs int    `json:"span_epochs"`
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFileName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("recordstore: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("recordstore: unsupported manifest version %d", m.Version)
	}
	// Entries are joined to dir, opened and, on rollup, deleted: a name
	// that is not a bare segment file name would reach outside the store.
	// The patterns are constant, so Match cannot fail.
	for _, s := range m.Segments {
		cold, _ := filepath.Match("seg-*"+coldSegExt, s.File)
		rollup, _ := filepath.Match("seg-*"+rollupSegExt, s.File)
		if !cold && !rollup || s.Epochs < 0 || s.FromNanos > s.ToNanos {
			return m, fmt.Errorf("recordstore: corrupt manifest: bad segment entry %+v", s)
		}
	}
	return m, nil
}

// writeManifest publishes m atomically: temp file, fsync, rename, dir
// fsync.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(dir, manifestFileName, data)
}

func atomicWriteFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories; the rename itself is
	// still atomic there, so degrade silently.
	_ = d.Sync()
	return nil
}

// Tiered is a tiered store open for writing: the handle a collector
// daemon holds. WriteEpoch appends to the hot tier; once the hot tier
// exceeds its window (and CompactEvery is set) a background pass
// migrates the surplus into cold segments and applies retention.
// Implements EpochWriter. WriteEpoch/Flush/Sync must be called from one
// goroutine (the Writer contract); Compact may run concurrently with
// them.
type Tiered struct {
	dir  string
	opts TieredOptions

	mu        sync.Mutex // guards fw swaps and the hot rewrite
	fw        *FileWriter
	fsyncBase uint64 // fsyncs from writers retired by hot rewrites
	metrics   *Metrics

	hotLive   atomic.Int64 // hot epochs past the manifest cutoff
	lastNanos atomic.Int64 // newest data timestamp seen (retention clock)

	compacting  atomic.Bool
	compactMu   sync.Mutex // serializes Compact passes (auto and explicit)
	lastStallNs atomic.Int64
	compactWG   sync.WaitGroup

	seq    atomic.Uint64 // last segment sequence number used
	closed atomic.Bool
}

// OpenTiered opens (creating if needed) the tiered store rooted at dir
// for appending: recovers the hot file's torn tail, garbage-collects
// segment files a crashed compaction left unpublished, and positions the
// hot writer after the last intact epoch. The Recovery describes the hot
// tier.
func OpenTiered(dir string, opts TieredOptions) (*Tiered, Recovery, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	if err := gcOrphans(dir, man); err != nil {
		return nil, Recovery{}, err
	}
	fw, rec, err := OpenFile(filepath.Join(dir, hotFileName), opts.Sync)
	if err != nil {
		return nil, Recovery{}, err
	}
	t := &Tiered{dir: dir, opts: opts, fw: fw}
	t.seq.Store(man.Seq)
	for _, s := range man.Segments {
		if s.ToNanos > t.lastNanos.Load() {
			t.lastNanos.Store(s.ToNanos)
		}
	}
	if rec.Epochs > 0 {
		m, err := OpenMapped(filepath.Join(dir, hotFileName))
		if err != nil {
			fw.Close()
			return nil, Recovery{}, err
		}
		live := 0
		for i := 0; i < m.Epochs(); i++ {
			nanos := m.EpochTime(i).UnixNano()
			if nanos > man.CutoffNanos {
				live++
			}
			if nanos > t.lastNanos.Load() {
				t.lastNanos.Store(nanos)
			}
		}
		m.Close()
		t.hotLive.Store(int64(live))
	}
	return t, rec, nil
}

// gcOrphans removes segment files and temp files the manifest does not
// reference — debris from a compaction that crashed between a rename and
// its manifest publish. Only the read-write open may do this: a
// read-only opener racing a live compactor could otherwise delete a
// just-renamed segment about to be published.
func gcOrphans(dir string, man manifest) error {
	live := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		live[s.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case (strings.HasSuffix(name, coldSegExt) || strings.HasSuffix(name, rollupSegExt)) && !live[name]:
		default:
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// WriteEpoch appends one epoch to the hot tier and, when the hot window
// has overflowed by CompactEvery epochs, kicks off a background
// compaction.
func (t *Tiered) WriteEpoch(ts time.Time, records []flow.Record) error {
	t.mu.Lock()
	err := t.fw.WriteEpoch(ts, records)
	if err == nil {
		// Under mu so a concurrent rewriteHot (which counts kept epochs
		// and stores hotLive under the same lock) can't double-count this
		// epoch.
		t.hotLive.Add(1)
	}
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if n := ts.UnixNano(); n > t.lastNanos.Load() {
		t.lastNanos.Store(n)
	}
	if t.opts.CompactEvery > 0 &&
		t.hotLive.Load() >= int64(t.opts.HotEpochs+t.opts.CompactEvery) &&
		t.compacting.CompareAndSwap(false, true) {
		t.compactWG.Add(1)
		go func() {
			defer t.compactWG.Done()
			defer t.compacting.Store(false)
			stats, err := t.Compact()
			if cb := t.opts.OnCompact; cb != nil {
				cb(stats, err)
			}
		}()
	}
	return nil
}

// Flush flushes the hot writer's buffered epochs.
func (t *Tiered) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fw.Flush()
}

// Sync is the everything-durable barrier: flush + fsync the hot tier.
// Segments are fsynced before they are published, so they need nothing
// at shutdown.
func (t *Tiered) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fw.Sync()
}

// Fsyncs counts hot-tier fsyncs across writer swaps.
func (t *Tiered) Fsyncs() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fsyncBase + t.fw.Fsyncs()
}

// LastFsyncNs returns the most recent hot-tier fsync duration.
func (t *Tiered) LastFsyncNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fw.LastFsyncNs()
}

// SetMetrics attaches write-side instruments, surviving writer swaps.
func (t *Tiered) SetMetrics(m *Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = m
	t.fw.SetMetrics(m)
}

// LastStallNs returns the lock-held duration of the most recent hot
// rewrite (0 before the first compaction).
func (t *Tiered) LastStallNs() int64 { return t.lastStallNs.Load() }

// Dir returns the store's root directory.
func (t *Tiered) Dir() string { return t.dir }

// Close waits out any in-flight compaction (automatic or explicit),
// then syncs and closes the hot writer. Compact calls after Close fail.
func (t *Tiered) Close() error {
	t.compactWG.Wait()
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.closed.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fw.Close()
}

// Compact runs one full compaction pass: migrate hot epochs beyond the
// window into a new cold segment, swap the trimmed hot file in, then
// apply retention (downsampling expired cold segments into rollups).
// Safe to call concurrently with WriteEpoch and with itself: passes are
// serialized internally, so an explicit call (e.g. a shutdown path)
// simply waits out any automatic pass still in flight rather than
// racing it for the same segment sequence number. Fails once the store
// is closed.
func (t *Tiered) Compact() (CompactStats, error) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	var stats CompactStats
	if t.closed.Load() {
		return stats, errors.New("recordstore: Compact on closed store")
	}
	if err := t.Flush(); err != nil {
		return stats, err
	}
	man, err := readManifest(t.dir)
	if err != nil {
		return stats, err
	}

	man, err = t.migrate(man, &stats)
	if err != nil {
		return stats, err
	}
	if err := t.retain(man, &stats); err != nil {
		return stats, err
	}
	return stats, nil
}

// migrate moves hot epochs beyond the window into one new cold segment
// and swaps in a trimmed hot file. Returns the manifest as published.
func (t *Tiered) migrate(man manifest, stats *CompactStats) (manifest, error) {
	hotPath := filepath.Join(t.dir, hotFileName)
	m, err := OpenMapped(hotPath)
	if err != nil {
		return man, err
	}
	defer m.Close()

	// Index the live (not-yet-migrated) hot epochs. A crash-leftover
	// prefix at or before the cutoff is already in segments.
	first := 0
	for first < m.Epochs() && m.EpochTime(first).UnixNano() <= man.CutoffNanos {
		first++
	}
	live := m.Epochs() - first
	migrate := live - t.opts.HotEpochs
	if migrate <= 0 {
		return man, nil
	}
	end := first + migrate
	// Never split a run of equal timestamps across the cutoff: read-side
	// dedup is "hot nanos <= cutoff means migrated", which must not
	// swallow a still-hot twin.
	for end > first && end < m.Epochs() &&
		m.EpochTime(end-1).UnixNano() == m.EpochTime(end).UnixNano() {
		end--
	}
	if end == first {
		return man, nil
	}

	seq := t.seq.Load() + 1
	segName := fmt.Sprintf("seg-%06d%s", seq, coldSegExt)
	tmp := filepath.Join(t.dir, segName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return man, err
	}
	sw := NewSegmentWriter(f, SegmentCold)
	if t.opts.BlockEpochs > 0 {
		sw.SetBlockEpochs(t.opts.BlockEpochs)
	}
	var buf []flow.Record
	var rawBytes int64
	for i := first; i < end; i++ {
		ep, err := m.AppendEpochAt(i, buf[:0])
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return man, fmt.Errorf("recordstore: compact: decode hot epoch %d: %w", i, err)
		}
		buf = ep.Records
		rawBytes += int64(m.metas[i].size)
		if err := sw.Add(SegmentEpoch{Time: ep.Time, Records: ep.Records}); err != nil {
			f.Close()
			os.Remove(tmp)
			return man, err
		}
	}
	if err := sw.Close(); err != nil {
		f.Close()
		os.Remove(tmp)
		return man, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return man, err
	}
	segBytes, _ := f.Seek(0, 2)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return man, err
	}
	if err := os.Rename(tmp, filepath.Join(t.dir, segName)); err != nil {
		return man, err
	}
	if err := syncDir(t.dir); err != nil {
		return man, err
	}

	cutoff := m.EpochTime(end - 1).UnixNano()
	man.Seq = seq
	man.CutoffNanos = cutoff
	man.Segments = append(man.Segments, segmentEntry{
		File:       segName,
		Kind:       SegmentCold.String(),
		Epochs:     end - first,
		FromNanos:  m.EpochTime(first).UnixNano(),
		ToNanos:    cutoff,
		Bytes:      segBytes,
		SpanEpochs: end - first,
	})
	if err := writeManifest(t.dir, man); err != nil {
		return man, err
	}
	t.seq.Store(seq)

	stall, err := t.rewriteHot(cutoff)
	if err != nil {
		return man, err
	}
	stats.Migrated = end - first
	stats.RawBytes = rawBytes
	stats.SegmentBytes = segBytes
	stats.StallNs = stall
	t.lastStallNs.Store(stall)
	return man, nil
}

// rewriteHot rebuilds the hot file without the epochs at or before
// cutoff and swaps writers. The whole rewrite holds the write lock —
// the compaction stall — but the hot window is small by construction
// and the copy is raw frame bytes, no decode.
func (t *Tiered) rewriteHot(cutoff int64) (stallNs int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()

	// Everything buffered must be on disk before the mmap snapshot, or
	// the rewrite would silently drop epochs appended since Compact
	// started.
	if err := t.fw.Sync(); err != nil {
		return 0, err
	}
	hotPath := filepath.Join(t.dir, hotFileName)
	m, err := OpenMapped(hotPath)
	if err != nil {
		return 0, err
	}
	defer m.Close()

	tmp := hotPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	cleanup := func(e error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, e
	}
	if _, err := f.Write(append([]byte(magic), version)); err != nil {
		return cleanup(err)
	}
	kept := 0
	for i := 0; i < m.Epochs(); i++ {
		if m.EpochTime(i).UnixNano() <= cutoff {
			continue
		}
		// Raw frame copy: the length varint directly precedes the body.
		meta := m.metas[i]
		frameStart := meta.off - uvarintLen(uint64(meta.size))
		if _, err := f.Write(m.data[frameStart : meta.off+meta.size]); err != nil {
			return cleanup(err)
		}
		kept++
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, hotPath); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(t.dir); err != nil {
		return 0, err
	}

	// Swap writers: retire the handle still bound to the old inode and
	// reopen on the renamed file. OpenFile re-verifies the tail we just
	// wrote; with the hot window small, that decode is cheap.
	old := t.fw
	t.fsyncBase += old.Fsyncs()
	if err := old.f.Close(); err != nil {
		return 0, err
	}
	fw, _, err := OpenFile(hotPath, t.opts.Sync)
	if err != nil {
		return 0, fmt.Errorf("recordstore: compact: reopen hot writer: %w", err)
	}
	if t.metrics != nil {
		fw.SetMetrics(t.metrics)
	}
	t.fw = fw
	t.hotLive.Store(int64(kept))
	return time.Since(start).Nanoseconds(), nil
}

// retain downsamples cold segments that have aged out of the lossless
// window into rollup segments: one epoch per segment holding the exact
// top-K flows of the merged run plus exact aggregate totals.
func (t *Tiered) retain(man manifest, stats *CompactStats) error {
	if t.opts.Retain <= 0 {
		return nil
	}
	horizon := t.lastNanos.Load() - t.opts.Retain.Nanoseconds()
	for i, entry := range man.Segments {
		if entry.Kind != SegmentCold.String() || entry.ToNanos >= horizon {
			continue
		}
		newMan, err := t.rollupSegment(man, i)
		if err != nil {
			return err
		}
		man = newMan
		stats.RolledUp++
	}
	return nil
}

// rollupSegment replaces man.Segments[i] (a cold segment) with its
// rollup, publishing the swap through the manifest before deleting the
// cold file.
func (t *Tiered) rollupSegment(man manifest, i int) (manifest, error) {
	entry := man.Segments[i]
	seg, err := OpenSegment(filepath.Join(t.dir, entry.File))
	if err != nil {
		return man, err
	}
	rolled, err := buildRollup(seg, t.opts.RollupK)
	seg.Close()
	if err != nil {
		return man, err
	}

	seq := t.seq.Load() + 1
	segName := fmt.Sprintf("seg-%06d%s", seq, rollupSegExt)
	tmp := filepath.Join(t.dir, segName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return man, err
	}
	sw := NewSegmentWriter(f, SegmentRollup)
	if err := sw.Add(rolled); err == nil {
		err = sw.Close()
	}
	if err == nil {
		err = f.Sync()
	}
	segBytes, _ := f.Seek(0, 2)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return man, err
	}
	if err := os.Rename(tmp, filepath.Join(t.dir, segName)); err != nil {
		return man, err
	}
	if err := syncDir(t.dir); err != nil {
		return man, err
	}

	man.Seq = seq
	man.Segments[i] = segmentEntry{
		File:       segName,
		Kind:       SegmentRollup.String(),
		Epochs:     1,
		FromNanos:  entry.FromNanos,
		ToNanos:    entry.ToNanos,
		Bytes:      segBytes,
		SpanEpochs: entry.SpanEpochs,
	}
	if err := writeManifest(t.dir, man); err != nil {
		return man, err
	}
	t.seq.Store(seq)
	// Published; the cold file is now garbage. Best-effort delete — a
	// leftover is collected at the next open.
	os.Remove(filepath.Join(t.dir, entry.File))
	return man, nil
}

// buildRollup folds every epoch of a cold segment into one downsampled
// epoch: flows merged by key with summed counts, cut to the exact top-K
// by merged count, re-sorted by key (the order segments store records
// in), plus exact aggregate totals over everything including the
// dropped tail.
func buildRollup(seg *Segment, k int) (SegmentEpoch, error) {
	views := make([]netwide.View, 0, seg.Epochs())
	var totalRecords, totalPackets uint64
	var span int
	for i := 0; i < seg.Epochs(); i++ {
		ep, err := seg.AppendEpochAt(i, nil)
		if err != nil {
			return SegmentEpoch{}, fmt.Errorf("recordstore: rollup: decode epoch %d: %w", i, err)
		}
		views = append(views, netwide.View{Name: "epoch", Records: ep.Records})
		info := seg.EpochInfo(i)
		totalRecords += info.TotalRecords
		totalPackets += info.TotalPackets
		span += info.Span
	}
	merged := netwide.MergeSumInto(nil, views...)
	if len(merged) > k {
		slices.SortFunc(merged, func(a, b flow.Record) int {
			if a.Count != b.Count {
				if a.Count > b.Count {
					return -1
				}
				return 1
			}
			return flow.CompareKeys(a.Key, b.Key)
		})
		merged = merged[:k]
		netwide.SortByKey(merged)
	}
	var first time.Time
	if seg.Epochs() > 0 {
		first = seg.EpochTime(0)
	}
	return SegmentEpoch{
		Time:         first,
		Records:      merged,
		Span:         span,
		TotalRecords: totalRecords,
		TotalPackets: totalPackets,
	}, nil
}

// uvarintLen returns how many bytes binary.PutUvarint uses for x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// tieredEntry maps one global epoch index to its physical location.
type tieredEntry struct {
	seg   int // index into TieredSource.segs, -1 for the hot tier
	local int
	nanos int64
}

// TieredSource is a tiered store opened for reading: cold and rollup
// segments per the manifest, then the live hot epochs, addressed as one
// dense time-ordered epoch index. Implements EpochSource, InfoSource and
// TruncatedSource. Safe for concurrent use.
type TieredSource struct {
	segs    []*Segment
	hot     *Mapped
	entries []tieredEntry

	// hotDecodes counts AppendEpochAt calls served by the hot tier —
	// the observable proving cold-range queries never touch hot-resident
	// epochs.
	hotDecodes atomic.Uint64

	// lastSeg is 1 + the segment of the latest cold read, 0 before any.
	lastSeg atomic.Int64
}

// errManifestChanged signals that a compactor published a new manifest
// between openTieredOnce's manifest read and its hot-file open: the
// segments opened reflect the old manifest while the hot file may
// already be trimmed past the new cutoff, so the combined view could
// silently miss the just-migrated epochs. Retrying converges because
// every manifest publish strictly advances Seq.
var errManifestChanged = errors.New("recordstore: manifest changed during open")

// OpenTieredSource opens the tiered store directory at dir read-only. A
// compactor mutating the directory mid-open surfaces either as ENOENT
// (a manifest-listed segment retired before we opened it) or as a
// manifest Seq advance (the hot file trimmed under us); both re-read
// the manifest and retry, which converges because every manifest
// publish strictly advances.
func OpenTieredSource(dir string) (*TieredSource, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		src, err := openTieredOnce(dir)
		if err == nil {
			return src, nil
		}
		if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, errManifestChanged) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("recordstore: tiered open kept racing compaction: %w", lastErr)
}

func openTieredOnce(dir string) (*TieredSource, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	src := &TieredSource{}
	ok := false
	defer func() {
		if !ok {
			src.Close()
		}
	}()

	for _, entry := range man.Segments {
		seg, err := OpenSegment(filepath.Join(dir, entry.File))
		if err != nil {
			return nil, err
		}
		src.segs = append(src.segs, seg)
	}

	hotPath := filepath.Join(dir, hotFileName)
	if st, err := os.Stat(hotPath); err == nil && st.Size() > int64(len(magic)) {
		m, err := OpenMapped(hotPath)
		if err != nil {
			return nil, err
		}
		src.hot = m
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}

	// The hot file was opened after the segments; if a compactor
	// published a manifest in between, the hot mapping may already be
	// trimmed to a newer cutoff than the segment set covers. Re-read and
	// compare: any publish bumps Seq, so an unchanged Seq proves the
	// segments and hot snapshot describe the same store generation.
	man2, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if man2.Seq != man.Seq {
		return nil, errManifestChanged
	}

	for si, seg := range src.segs {
		for i := 0; i < seg.Epochs(); i++ {
			src.entries = append(src.entries, tieredEntry{seg: si, local: i, nanos: seg.metas[i].nanos})
		}
	}
	if src.hot != nil {
		for i := 0; i < src.hot.Epochs(); i++ {
			nanos := src.hot.metas[i].nanos
			if nanos <= man.CutoffNanos {
				// Migrated but not yet trimmed (crash window); the segment
				// copy is authoritative.
				continue
			}
			src.entries = append(src.entries, tieredEntry{seg: -1, local: i, nanos: nanos})
		}
	}
	ok = true
	return src, nil
}

// Epochs returns the total epoch count across tiers.
func (s *TieredSource) Epochs() int { return len(s.entries) }

// EpochTime returns epoch i's timestamp.
func (s *TieredSource) EpochTime(i int) time.Time {
	return time.Unix(0, s.entries[i].nanos).UTC()
}

// EpochLen returns epoch i's stored record count.
func (s *TieredSource) EpochLen(i int) int {
	e := s.entries[i]
	if e.seg < 0 {
		return s.hot.EpochLen(e.local)
	}
	return s.segs[e.seg].EpochLen(e.local)
}

// AppendEpochAt decodes epoch i from whichever tier holds it.
func (s *TieredSource) AppendEpochAt(i int, dst []flow.Record) (Epoch, error) {
	if i < 0 || i >= len(s.entries) {
		return Epoch{}, fmt.Errorf("recordstore: epoch %d out of range [0,%d)", i, len(s.entries))
	}
	e := s.entries[i]
	if e.seg < 0 {
		s.hotDecodes.Add(1)
		return s.hot.AppendEpochAt(e.local, dst)
	}
	if prev := s.lastSeg.Swap(int64(e.seg) + 1); prev != 0 && prev != int64(e.seg)+1 {
		// A scan moved on: the previous segment's decoder (an inflated
		// block and two key columns) goes back to the pool, so a scan
		// over many segments holds one decoder, not one per segment.
		s.segs[prev-1].releaseDecoder()
	}
	return s.segs[e.seg].AppendEpochAt(e.local, dst)
}

// EpochInfo implements InfoSource with the holding tier's metadata.
func (s *TieredSource) EpochInfo(i int) EpochInfo {
	e := s.entries[i]
	if e.seg < 0 {
		return s.hot.EpochInfo(e.local)
	}
	return s.segs[e.seg].EpochInfo(e.local)
}

// Range returns [lo, hi) over the unified index by binary search on the
// per-epoch timestamps — cross-tier time ranges never decode records.
func (s *TieredSource) Range(t0, t1 time.Time) (lo, hi int) {
	lo = s.searchNanos(t0.UnixNano())
	if t1.IsZero() {
		return lo, len(s.entries)
	}
	return lo, s.searchNanos(t1.UnixNano())
}

func (s *TieredSource) searchNanos(nanos int64) int {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.entries[mid].nanos < nanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Truncated reports whether the hot tier ended in a torn frame.
func (s *TieredSource) Truncated() bool {
	return s.hot != nil && s.hot.Truncated()
}

// HotDecodes returns how many epoch decodes the hot tier has served —
// zero after a purely-cold time-range query, which is how tests pin
// "long-range queries don't scan the hot tier".
func (s *TieredSource) HotDecodes() uint64 { return s.hotDecodes.Load() }

// Segments returns how many segments back the source.
func (s *TieredSource) Segments() int { return len(s.segs) }

// Close releases every tier.
func (s *TieredSource) Close() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	if s.hot != nil {
		if err := s.hot.Close(); err != nil && first == nil {
			first = err
		}
		s.hot = nil
	}
	s.entries = nil
	return first
}
