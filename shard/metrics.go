package shard

import "repro/telemetry"

// Metrics carries the ingestion-path instruments of a Sharded
// recorder. The hot-path cost is two atomic adds per UpdateBatch call
// (not per packet), and zero when no metrics are attached — every
// instrument is nil-safe.
type Metrics struct {
	// Batches counts UpdateBatch calls.
	Batches *telemetry.Counter
	// BatchPackets is the packet count per UpdateBatch call — the
	// realized ingest batch size.
	BatchPackets *telemetry.Histogram
}

// NewMetrics registers the shard instruments under the given label
// pairs and returns them for SetMetrics.
func NewMetrics(reg *telemetry.Registry, labelPairs ...string) *Metrics {
	return &Metrics{
		Batches: reg.Counter(
			telemetry.Name("shard_batches_total", labelPairs...),
			"UpdateBatch calls"),
		BatchPackets: reg.Histogram(
			telemetry.Name("shard_batch_packets", labelPairs...),
			"packets per UpdateBatch call"),
	}
}

// SetMetrics attaches instruments to the ingestion path, or detaches them
// when m is nil. Call before ingestion begins: the fields are read without
// synchronization by concurrent feeders.
func (s *Sharded) SetMetrics(m *Metrics) {
	if m == nil {
		s.mBatches, s.mBatchPackets = nil, nil
		return
	}
	s.mBatches = m.Batches
	s.mBatchPackets = m.BatchPackets
}
