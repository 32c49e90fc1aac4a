// Package sampled implements classic sampled NetFlow, the traditional
// solution the paper's introduction discusses: only one in Rate packets is
// processed, and per-flow counts are scaled back up by the sampling rate.
// It trades accuracy for processing cost — exactly the trade-off HashFlow
// is designed to avoid — and serves as a reference comparator.
package sampled

import (
	"fmt"
	"math/rand/v2"

	"repro/flow"
)

// DefaultRate is the default 1-in-N packet sampling rate.
const DefaultRate = 100

// CellBytes approximates the flow-cache cost of one entry: a 104-bit key
// plus a 32-bit count (hash-map overhead is not charged, mirroring how
// routers size their flow caches).
const CellBytes = flow.KeyBytes + 4

// Config parameterizes a sampled NetFlow recorder.
type Config struct {
	// MemoryBytes bounds the flow cache: MemoryBytes/17 entries.
	MemoryBytes int
	// Rate samples one in Rate packets (default 100). Rate 1 disables
	// sampling and yields exact NetFlow (memory permitting).
	Rate int
	// Seed drives the sampling decisions.
	Seed uint64
}

// Recorder is a bounded flow cache fed by packet sampling. When the cache
// is full, new flows are dropped — the behaviour of a router whose flow
// cache overflows within an export epoch.
type Recorder struct {
	cfg      Config
	capacity int
	counts   map[flow.Key]uint32
	rng      *rand.Rand
	ops      flow.OpStats
	sampled  uint64
	dropped  uint64
}

// New builds a sampled NetFlow recorder.
func New(cfg Config) (*Recorder, error) {
	if cfg.Rate == 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("sampled: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.Rate < 1 {
		return nil, fmt.Errorf("sampled: rate must be >= 1, got %d", cfg.Rate)
	}
	capacity := cfg.MemoryBytes / CellBytes
	if capacity < 1 {
		return nil, fmt.Errorf("sampled: budget of %d bytes holds no cache entries", cfg.MemoryBytes)
	}
	return &Recorder{
		cfg:      cfg,
		capacity: capacity,
		counts:   make(map[flow.Key]uint32, capacity),
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0x5a3d)),
	}, nil
}

// Rate returns the configured sampling rate.
func (r *Recorder) Rate() int { return r.cfg.Rate }

// Capacity returns the flow-cache entry bound.
func (r *Recorder) Capacity() int { return r.capacity }

// Sampled returns how many packets passed the sampler.
func (r *Recorder) Sampled() uint64 { return r.sampled }

// Dropped returns how many sampled packets of new flows were discarded
// because the cache was full.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Update samples the packet; a hit updates the flow cache.
func (r *Recorder) Update(p flow.Packet) { r.update(&p, &r.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls —
// the sampler consumes RNG draws in identical order — adding the operation
// counts to the recorder's total once per batch.
func (r *Recorder) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		r.update(&pkts[i], &ops)
	}
	r.ops = r.ops.Add(ops)
}

// update samples one packet, counting operations in ops.
func (r *Recorder) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	if r.cfg.Rate > 1 && r.rng.IntN(r.cfg.Rate) != 0 {
		return
	}
	r.sampled++
	ops.MemAccesses++
	if _, ok := r.counts[p.Key]; !ok && len(r.counts) >= r.capacity {
		r.dropped++
		return
	}
	r.counts[p.Key]++
	ops.MemAccesses++
}

// EstimateSize returns the sampled count scaled by the sampling rate, the
// standard NetFlow inversion.
func (r *Recorder) EstimateSize(k flow.Key) uint32 {
	c, ok := r.counts[k]
	if !ok {
		return 0
	}
	est := uint64(c) * uint64(r.cfg.Rate)
	if est > 0xFFFFFFFF {
		est = 0xFFFFFFFF
	}
	return uint32(est)
}

// Records reports one record per cached flow with rate-scaled counts.
func (r *Recorder) Records() []flow.Record {
	return r.AppendRecords(make([]flow.Record, 0, len(r.counts)))
}

// AppendRecords appends one record per cached flow with rate-scaled counts
// to dst and returns the extended slice, scaling directly from the cached
// value instead of re-querying the map per flow.
func (r *Recorder) AppendRecords(dst []flow.Record) []flow.Record {
	for k, c := range r.counts {
		est := uint64(c) * uint64(r.cfg.Rate)
		if est > 0xFFFFFFFF {
			est = 0xFFFFFFFF
		}
		dst = append(dst, flow.Record{Key: k, Count: uint32(est)})
	}
	return dst
}

// EstimateCardinality scales the distinct sampled-flow count by the rate.
// This simple inversion is only unbiased for single-packet flows; its bias
// on skewed traffic is precisely the weakness of sampling the paper cites
// (enhanced estimators exist but need the flow size distribution).
func (r *Recorder) EstimateCardinality() float64 {
	return float64(len(r.counts)) * float64(r.cfg.Rate)
}

// MemoryBytes returns the configured cache footprint.
func (r *Recorder) MemoryBytes() int { return r.capacity * CellBytes }

// OpStats returns cumulative operation counts since the last Reset.
// Sampling's entire appeal is visible here: most packets cost nothing.
func (r *Recorder) OpStats() flow.OpStats { return r.ops }

// Reset clears the cache and counters.
func (r *Recorder) Reset() {
	r.counts = make(map[flow.Key]uint32, r.capacity)
	r.ops = flow.OpStats{}
	r.sampled = 0
	r.dropped = 0
}
