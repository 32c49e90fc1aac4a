// Durability: the crash-safety half of the record store. A collector that
// dies mid-epoch leaves a torn frame at the end of its store file — the
// length varint or body of the epoch it was writing when the process was
// killed. RecoverTail detects that tail and truncates the file back to
// its last intact epoch, so a restarted collector appends to its own
// store instead of starting over (or refusing to start at all). OpenFile
// packages recovery + reopen-for-append + a configurable fsync policy
// into the one call a daemon needs at startup.
package recordstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/flow"
)

// SyncMode selects when a file-backed Writer fsyncs.
type SyncMode uint8

const (
	// SyncOff never fsyncs: the OS flushes on its own schedule. A crash
	// can lose every epoch still in the page cache (the torn tail is
	// still recovered on restart).
	SyncOff SyncMode = iota
	// SyncEachEpoch flushes and fsyncs after every epoch: at most the
	// in-flight epoch is lost on a crash.
	SyncEachEpoch
	// SyncInterval flushes and fsyncs at most once per Interval, amortizing
	// the fsync cost over several epochs on busy vantages.
	SyncInterval
)

// SyncPolicy is a Writer's durability policy: a mode plus, for
// SyncInterval, the interval.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

// String renders the policy in the form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncEachEpoch:
		return "epoch"
	case SyncInterval:
		return p.Interval.String()
	default:
		return "off"
	}
}

// ParseSyncPolicy decodes a policy flag value: "off", "epoch", or a
// duration ("500ms", "5s") meaning sync-at-most-that-often.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "never", "":
		return SyncPolicy{Mode: SyncOff}, nil
	case "epoch", "always":
		return SyncPolicy{Mode: SyncEachEpoch}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("recordstore: sync policy %q is not off, epoch, or a positive duration", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// Syncer is the subset of *os.File the durability policy needs.
type Syncer interface {
	Sync() error
}

// SetSyncPolicy attaches a sync target and policy to the Writer: after
// each WriteEpoch the policy decides whether to flush buffered bytes and
// fsync. Call before the first epoch is written.
func (w *Writer) SetSyncPolicy(s Syncer, pol SyncPolicy) {
	w.syncer = s
	w.policy = pol
}

// Sync flushes buffered epochs to the underlying stream and, when a sync
// target is attached, fsyncs it — the everything-durable barrier used at
// shutdown regardless of policy.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if w.syncer != nil {
		start := time.Now()
		if err := w.syncer.Sync(); err != nil {
			return fmt.Errorf("recordstore: sync: %w", err)
		}
		// Timing an fsync costs nothing next to the fsync itself, so the
		// duration is kept unconditionally for epoch-trace spans; the
		// histogram still only fills when metrics are wired.
		elapsed := time.Since(start)
		w.lastFsyncNs.Store(elapsed.Nanoseconds())
		w.fsyncs.Add(1)
		if m := w.metrics; m != nil {
			m.Fsyncs.Inc()
			m.FsyncNs.ObserveDuration(elapsed)
		}
	}
	w.lastSync = time.Now()
	return nil
}

// Fsyncs returns how many fsyncs this Writer has issued, independent of
// whether metrics are wired. Epoch-trace spans diff it around a write to
// detect whether the durability policy fired.
func (w *Writer) Fsyncs() uint64 { return w.fsyncs.Load() }

// LastFsyncNs returns the wall duration of the most recent fsync in
// nanoseconds (0 before the first).
func (w *Writer) LastFsyncNs() int64 { return w.lastFsyncNs.Load() }

// maybeSync applies the policy after one epoch write.
func (w *Writer) maybeSync() error {
	switch w.policy.Mode {
	case SyncEachEpoch:
		return w.Sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.policy.Interval {
			return w.Sync()
		}
	}
	return nil
}

// Recovery reports what RecoverTail found and did.
type Recovery struct {
	// Epochs is the number of intact epochs the recovered store holds.
	Epochs int
	// GoodSize is the recovered file length in bytes (header + intact
	// epochs).
	GoodSize int64
	// TornBytes is how many trailing bytes were truncated away: a partial
	// frame from a killed writer, or 0 for a cleanly closed store.
	TornBytes int64
	// Created reports that the file did not exist (or was empty): there
	// was nothing to recover and the writer starts fresh.
	Created bool
}

// RecoverTail opens the store file at path, locates the last byte of its
// last intact epoch, and truncates anything after it: the torn frame a
// killed writer leaves behind. Epochs at the tail that are
// structurally complete but fail to decode (a partially flushed body that
// happens to look frame-shaped) are dropped too. A missing or empty file
// is not an error — Recovery.Created reports it and the file is left for
// the writer to initialize. A file that exists but does not begin with
// the store magic is never touched: that is ErrNotStore, not a torn tail.
func RecoverTail(path string) (Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return Recovery{Created: true}, nil
	}
	if err != nil {
		return Recovery{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Recovery{}, err
	}
	size := st.Size()
	if size == 0 {
		return Recovery{Created: true}, nil
	}
	headerLen := int64(len(magic) + 1)
	if size < headerLen {
		// A writer killed inside the 5-byte header. Only treat it as ours
		// if what made it to disk is a magic prefix; otherwise refuse.
		var hdr [len(magic)]byte
		n, err := f.ReadAt(hdr[:], 0)
		if err != nil && err != io.EOF {
			return Recovery{}, err
		}
		if string(hdr[:n]) != magic[:n] {
			return Recovery{}, ErrNotStore
		}
		if err := truncateSync(f, 0); err != nil {
			return Recovery{}, err
		}
		return Recovery{Created: true, TornBytes: size}, nil
	}

	data, unmap, err := mapFile(f, size)
	if err != nil {
		return Recovery{}, fmt.Errorf("recordstore: map %s: %w", path, err)
	}
	if unmap != nil {
		defer unmap()
	}
	if string(data[:len(magic)]) != magic {
		return Recovery{}, ErrNotStore
	}
	if data[len(magic)] != version {
		return Recovery{}, fmt.Errorf("recordstore: unsupported version %d", data[len(magic)])
	}

	good, epochs := scanIntact(data)
	rec := Recovery{Epochs: epochs, GoodSize: good, TornBytes: size - good}
	if rec.TornBytes > 0 {
		if err := truncateSync(f, good); err != nil {
			return Recovery{}, err
		}
	}
	return rec, nil
}

// scanIntact walks the epoch frames of a store image and returns the byte
// length of the longest prefix of fully decodable epochs, plus that
// prefix's epoch count. Structural damage (a frame running past the end,
// a corrupt length varint) ends the index; a frame that is structurally
// complete but fails to decode (a partially flushed body that happens to
// look frame-shaped) ends the scan at the epoch before it. The surviving
// prefix is readable by construction — recovery is a full-store decode,
// paid once at startup, so a recovered store can never fail a reader
// later.
func scanIntact(data []byte) (good int64, epochs int) {
	m := &Mapped{data: data}
	// buildIndex only errors on undecodable epoch headers; treat that
	// exactly like a truncated tail — the index holds every frame before
	// the damage.
	_ = m.buildIndex(len(magic) + 1)

	good = int64(len(magic) + 1)
	var buf []flow.Record
	for i := range m.metas {
		ep, err := m.AppendEpochAt(i, buf[:0])
		if err != nil {
			break
		}
		buf = ep.Records // reuse the decode buffer across epochs
		good = int64(m.metas[i].off + m.metas[i].size)
		epochs++
	}
	return good, epochs
}

// truncateSync truncates f to size and fsyncs, making the recovery itself
// durable before the writer appends after it.
func truncateSync(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("recordstore: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("recordstore: sync after truncate: %w", err)
	}
	return nil
}

// FileWriter is a Writer bound to its backing file: the append handle a
// daemon holds on its own store. Close flushes, fsyncs, and closes.
type FileWriter struct {
	*Writer
	f *os.File
}

// OpenFile opens (creating if needed) the store at path for appending,
// recovering a torn tail first, and returns a policy-synced writer
// positioned after the last intact epoch. A freshly created store gets
// its header at once, so it opens for reading as zero epochs before the
// first epoch is written. The Recovery reports what was found. The
// caller must Close the returned writer.
func OpenFile(path string, pol SyncPolicy) (*FileWriter, Recovery, error) {
	rec, err := RecoverTail(path)
	if err != nil {
		return nil, Recovery{}, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	w := NewWriter(f)
	w.SetSyncPolicy(f, pol)
	if rec.Created {
		if err := w.Flush(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	} else {
		// The header is already on disk; resume the epoch count so
		// Writer.Epochs reflects the whole store, not just this run.
		w.started = true
		w.epochs = uint64(rec.Epochs)
	}
	return &FileWriter{Writer: w, f: f}, rec, nil
}

// Close makes everything written durable and releases the file.
func (fw *FileWriter) Close() error {
	syncErr := fw.Sync()
	closeErr := fw.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
