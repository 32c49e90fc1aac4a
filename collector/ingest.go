// Batched ingestion: the send-side counterpart of the UDP collector. An
// Ingestor sits between a packet source (pcap reader, trace generator,
// capture loop) and a recorder, accumulating packets into fixed-size
// batches and handing each batch to the recorder's batched update path in
// one call. `flowcollect export` feeds its recorder, or its
// adaptive.Manager in epoch-aligned mode, through one. The manager passes
// each batch on in sub-batches cut at epoch and watermark boundaries, so
// behind it a shard.Sharded recorder routes once and locks each shard once
// per sub-batch, and every recorder runs its batched kernel.
package collector

import (
	"fmt"

	"repro/flow"
)

// DefaultBatchSize is the ingestion batch size used when a non-positive
// size is requested. 256 packets keeps the staging buffers well inside L1
// while amortizing the per-batch costs to noise.
const DefaultBatchSize = 256

// BatchRecorder is the ingestion surface the pipeline needs from a
// recorder; flowmon.Recorder (and thus shard.Sharded) satisfies it.
type BatchRecorder interface {
	UpdateBatch(pkts []flow.Packet)
}

// Ingestor accumulates packets into batches and feeds a recorder. It is
// not safe for concurrent use; run one Ingestor per feeding goroutine
// (shard.Sharded serializes per shard underneath).
type Ingestor struct {
	rec     BatchRecorder
	buf     []flow.Packet
	packets uint64
}

// NewIngestor builds an ingestor feeding rec in batches of batchSize
// packets (DefaultBatchSize if <= 0).
func NewIngestor(rec BatchRecorder, batchSize int) (*Ingestor, error) {
	if rec == nil {
		return nil, fmt.Errorf("collector: nil recorder")
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Ingestor{rec: rec, buf: make([]flow.Packet, 0, batchSize)}, nil
}

// Add buffers one packet, flushing to the recorder when the batch fills.
func (g *Ingestor) Add(p flow.Packet) {
	g.buf = append(g.buf, p)
	if len(g.buf) == cap(g.buf) {
		g.Flush()
	}
}

// AddBatch buffers a slice of packets, flushing full batches as it goes.
// The input slice is not retained.
func (g *Ingestor) AddBatch(pkts []flow.Packet) {
	for len(pkts) > 0 {
		n := cap(g.buf) - len(g.buf)
		if n > len(pkts) {
			n = len(pkts)
		}
		g.buf = append(g.buf, pkts[:n]...)
		pkts = pkts[n:]
		if len(g.buf) == cap(g.buf) {
			g.Flush()
		}
	}
}

// Flush hands any buffered packets to the recorder as one (possibly short)
// batch. Callers must Flush after the last Add or packets still staged in
// the ingestor are lost.
func (g *Ingestor) Flush() {
	if len(g.buf) == 0 {
		return
	}
	g.rec.UpdateBatch(g.buf)
	g.packets += uint64(len(g.buf))
	g.buf = g.buf[:0]
}

// Packets returns how many packets have been delivered to the recorder
// (buffered, unflushed packets are not counted).
func (g *Ingestor) Packets() uint64 { return g.packets }

// Replay streams an entire packet slice through a fresh ingestor,
// including the final partial batch — the one-call form used by the
// benchmark harness and cmd/flowbench.
func Replay(rec BatchRecorder, pkts []flow.Packet, batchSize int) error {
	g, err := NewIngestor(rec, batchSize)
	if err != nil {
		return err
	}
	g.AddBatch(pkts)
	g.Flush()
	return nil
}
