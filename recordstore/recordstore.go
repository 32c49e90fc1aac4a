// Package recordstore persists epochs of flow records in a compact binary
// file format, the role nfcapd-style capture files play behind a NetFlow
// collector. Records are sorted by key and delta/varint-encoded, so large
// epochs compress well without any external compression library.
//
// File layout:
//
//	magic "FREC" | version u8 | epoch count (appended incrementally)
//	per epoch: header (unix nanos, record count) followed by records
//	encoded as varint deltas over the sorted key stream.
package recordstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/flow"
	"repro/internal/keysort"
)

// Format constants.
const (
	magic   = "FREC"
	version = 1
)

// ErrNotStore is returned when a stream does not begin with the store magic.
var ErrNotStore = errors.New("recordstore: not a record store stream")

// Epoch is one stored measurement epoch.
type Epoch struct {
	// Time is the epoch's export timestamp.
	Time time.Time
	// Records are the epoch's flow records, sorted by key.
	Records []flow.Record
}

// Writer appends epochs to an underlying stream. All sorting and encoding
// scratch is owned by the Writer and reused, so steady-state WriteEpoch
// calls are allocation-free once the buffers have grown to epoch size.
type Writer struct {
	w       *bufio.Writer
	started bool
	epochs  uint64
	scratch []flow.Record
	alt     []flow.Record // radix-sort ping-pong buffer
	buf     []byte
	lenBuf  [binary.MaxVarintLen64]byte // framing scratch: a local would escape into w.w.Write

	// Durability policy (see durable.go); zero means never sync.
	syncer      Syncer
	policy      SyncPolicy
	lastSync    time.Time
	fsyncs      atomic.Uint64
	lastFsyncNs atomic.Int64

	// Optional write-side instruments (see metrics.go); nil-safe.
	metrics *Metrics
}

// NewWriter wraps w. The file header is written on the first epoch (or by
// Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	if err := w.w.WriteByte(version); err != nil {
		return err
	}
	w.started = true
	return nil
}

// WriteEpoch appends one epoch. The input slice is not modified.
func (w *Writer) WriteEpoch(ts time.Time, records []flow.Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return fmt.Errorf("recordstore: write header: %w", err)
		}
	}
	// Sort a scratch copy by key, then pack each key into its two words
	// while delta encoding.
	w.scratch = append(w.scratch[:0], records...)
	w.alt = slices.Grow(w.alt[:0], len(records))[:len(records)]
	sorted := keysort.Sort(w.scratch, w.alt)

	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, uint64(ts.UnixNano()))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(sorted)))
	var prev1, prev2 uint64
	for _, r := range sorted {
		// Keys are sorted, so w1 deltas are non-negative and tiny for
		// adjacent prefixes; w2 is sent raw when w1 repeats, delta-coded
		// by XOR otherwise (XOR of similar words has many leading zeros
		// in neither — simply send varint of w2 ^ prev2).
		w1, w2 := r.Key.Words()
		w.buf = binary.AppendUvarint(w.buf, w1-prev1)
		w.buf = binary.AppendUvarint(w.buf, w2^prev2)
		w.buf = binary.AppendUvarint(w.buf, uint64(r.Count))
		prev1, prev2 = w1, w2
	}
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(w.buf)))
	if _, err := w.w.Write(w.lenBuf[:n]); err != nil {
		return fmt.Errorf("recordstore: write epoch length: %w", err)
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("recordstore: write epoch body: %w", err)
	}
	w.epochs++
	if m := w.metrics; m != nil {
		m.EpochsWritten.Inc()
		m.BytesWritten.Add(uint64(n + len(w.buf)))
	}
	return w.maybeSync()
}

// Epochs returns how many epochs were written.
func (w *Writer) Epochs() uint64 { return w.epochs }

// Flush writes buffered data (and the header if nothing was written yet).
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader reads epochs back from a stream produced by Writer.
type Reader struct {
	r       *bufio.Reader
	started bool
	buf     []byte
}

// NewReader wraps r; the header is validated on the first read.
//
// Constructing a Reader directly is deprecated outside this package:
// it hard-codes the flat hot-file layout and streams epochs in file
// order only. Call sites should use recordstore.Open, which serves any
// store layout (flat file or tiered directory) through EpochSource with
// random access.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return fmt.Errorf("recordstore: read header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return ErrNotStore
	}
	if hdr[4] != version {
		return fmt.Errorf("recordstore: unsupported version %d", hdr[4])
	}
	r.started = true
	return nil
}

// ReadEpoch returns the next epoch, or io.EOF cleanly at end of stream.
func (r *Reader) ReadEpoch() (Epoch, error) {
	return r.ReadEpochAppend(nil)
}

// ReadEpochAppend returns the next epoch with its records appended to dst,
// or io.EOF cleanly at end of stream. The returned Epoch's Records shares
// dst's backing array, so replaying a store through one reused buffer
// (ReadEpochAppend(buf[:0])) decodes epochs without allocating once the
// buffer has grown to epoch size. On error the (possibly partially
// appended) dst is discarded and a zero Epoch is returned.
func (r *Reader) ReadEpochAppend(dst []flow.Record) (Epoch, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Epoch{}, err
		}
	}
	size, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Epoch{}, io.EOF
		}
		return Epoch{}, fmt.Errorf("recordstore: read epoch length: %w", err)
	}
	if size > 1<<31 {
		return Epoch{}, fmt.Errorf("recordstore: implausible epoch size %d", size)
	}
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	r.buf = r.buf[:size]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return Epoch{}, fmt.Errorf("recordstore: read epoch body: %w", err)
	}

	return decodeEpochBody(r.buf, dst)
}

// decodeEpochBody decodes one epoch frame body (timestamp, count, delta
// stream) appending its records to dst. It is the single decoder behind
// both the streaming Reader and the mapped store, so the two read paths
// are identical by construction. On error dst is discarded and a zero
// Epoch is returned.
func decodeEpochBody(body []byte, dst []flow.Record) (Epoch, error) {
	nanos, n := binary.Uvarint(body)
	if n <= 0 {
		return Epoch{}, errors.New("recordstore: corrupt epoch timestamp")
	}
	body = body[n:]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return Epoch{}, errors.New("recordstore: corrupt record count")
	}
	body = body[n:]
	if count > 1<<28 {
		return Epoch{}, fmt.Errorf("recordstore: implausible record count %d", count)
	}

	dst = slices.Grow(dst, int(count))
	ep := Epoch{
		Time:    time.Unix(0, int64(nanos)).UTC(),
		Records: dst,
	}
	var prev1, prev2 uint64
	for i := uint64(0); i < count; i++ {
		d1, n1 := binary.Uvarint(body)
		if n1 <= 0 {
			return Epoch{}, fmt.Errorf("recordstore: corrupt record %d", i)
		}
		body = body[n1:]
		x2, n2 := binary.Uvarint(body)
		if n2 <= 0 {
			return Epoch{}, fmt.Errorf("recordstore: corrupt record %d", i)
		}
		body = body[n2:]
		cnt, n3 := binary.Uvarint(body)
		if n3 <= 0 || cnt > 0xFFFFFFFF {
			return Epoch{}, fmt.Errorf("recordstore: corrupt count in record %d", i)
		}
		body = body[n3:]

		w1 := prev1 + d1
		w2 := prev2 ^ x2
		key, err := keyFromWords(w1, w2)
		if err != nil {
			return Epoch{}, fmt.Errorf("recordstore: record %d: %w", i, err)
		}
		ep.Records = append(ep.Records, flow.Record{Key: key, Count: uint32(cnt)})
		prev1, prev2 = w1, w2
	}
	if len(body) != 0 {
		return Epoch{}, fmt.Errorf("recordstore: %d trailing bytes in epoch", len(body))
	}
	return ep, nil
}

// ReadAll drains every remaining epoch.
func (r *Reader) ReadAll() ([]Epoch, error) {
	var out []Epoch
	for {
		ep, err := r.ReadEpoch()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ep)
	}
}

// keyFromWords inverts flow.Key.Words. The packing leaves bits 40..63 of
// the second word unused; non-zero garbage there signals corruption.
func keyFromWords(w1, w2 uint64) (flow.Key, error) {
	if w2>>40 != 0 {
		return flow.Key{}, fmt.Errorf("invalid packed key word %#x", w2)
	}
	return flow.Key{
		SrcIP:   uint32(w1 >> 32),
		DstIP:   uint32(w1),
		SrcPort: uint16(w2 >> 24),
		DstPort: uint16(w2 >> 8),
		Proto:   uint8(w2),
	}, nil
}
