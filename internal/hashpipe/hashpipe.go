// Package hashpipe implements HashPipe (Sivaraman et al., SOSR 2017), the
// d-stage pipelined heavy-hitter table the paper compares against.
//
// Stage 1 always inserts the incoming flow, evicting any incumbent; later
// stages keep the larger of the carried record and the incumbent. This
// "always insert, min eviction" policy lets new flows enter but can split
// one flow's packets across several stage records — the inefficiency
// HashFlow's non-evicting main table avoids.
package hashpipe

import (
	"fmt"

	"repro/flow"
	"repro/internal/hashing"
)

// DefaultStages is the evaluation setting from the paper: 4 equal sub-tables.
const DefaultStages = 4

// CellBytes is the size of one stage record: 104-bit flow ID plus 32-bit count.
const CellBytes = flow.KeyBytes + 4

// Config parameterizes a HashPipe instance.
type Config struct {
	// MemoryBytes is the total memory budget split equally across stages.
	MemoryBytes int
	// Stages is the number of pipeline stages (default 4).
	Stages int
	// Seed makes the hash family deterministic.
	Seed uint64
}

type cell struct {
	key   flow.Key
	count uint32
}

// HashPipe is a d-stage pipeline of hash tables.
type HashPipe struct {
	stages [][]cell
	family *hashing.Family
	ops    flow.OpStats
}

// New builds a HashPipe with cfg, applying defaults for unset fields.
func New(cfg Config) (*HashPipe, error) {
	if cfg.Stages == 0 {
		cfg.Stages = DefaultStages
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("hashpipe: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.Stages < 1 || cfg.Stages > 16 {
		return nil, fmt.Errorf("hashpipe: stages must be in [1,16], got %d", cfg.Stages)
	}
	per := cfg.MemoryBytes / cfg.Stages / CellBytes
	if per < 1 {
		return nil, fmt.Errorf("hashpipe: budget of %d bytes leaves no cells for %d stages",
			cfg.MemoryBytes, cfg.Stages)
	}
	hp := &HashPipe{
		stages: make([][]cell, cfg.Stages),
		family: hashing.NewFamily(cfg.Stages, cfg.Seed),
	}
	for i := range hp.stages {
		hp.stages[i] = make([]cell, per)
	}
	return hp, nil
}

// Update processes one packet through the pipeline.
func (hp *HashPipe) Update(p flow.Packet) { hp.update(&p, &hp.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls,
// adding the operation counts to the recorder's total once per batch.
func (hp *HashPipe) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		hp.update(&pkts[i], &ops)
	}
	hp.ops = hp.ops.Add(ops)
}

// update runs one packet through the pipeline, counting operations in ops.
func (hp *HashPipe) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	w1, w2 := p.Key.Words()

	// Stage 1: always insert; evict the incumbent if it is a different flow.
	idx := hp.family.Bucket(0, w1, w2, uint64(len(hp.stages[0])))
	ops.Hashes++
	ops.MemAccesses++
	c := &hp.stages[0][idx]
	switch {
	case c.count == 0:
		*c = cell{key: p.Key, count: 1}
		ops.MemAccesses++
		return
	case c.key == p.Key:
		c.count++
		ops.MemAccesses++
		return
	}
	carried := *c
	*c = cell{key: p.Key, count: 1}
	ops.MemAccesses++

	// Later stages: merge on match, fill empty, otherwise keep the larger
	// record and carry the smaller one onward.
	for s := 1; s < len(hp.stages); s++ {
		cw1, cw2 := carried.key.Words()
		idx := hp.family.Bucket(s, cw1, cw2, uint64(len(hp.stages[s])))
		ops.Hashes++
		ops.MemAccesses++
		c := &hp.stages[s][idx]
		switch {
		case c.count == 0:
			*c = carried
			ops.MemAccesses++
			return
		case c.key == carried.key:
			c.count += carried.count
			ops.MemAccesses++
			return
		case carried.count > c.count:
			carried, *c = *c, carried
			ops.MemAccesses++
		}
	}
	// The record evicted from the last stage is discarded.
}

// EstimateSize sums the counts of every stage record matching the key —
// a single flow may be fragmented across stages.
func (hp *HashPipe) EstimateSize(k flow.Key) uint32 {
	w1, w2 := k.Words()
	var total uint32
	for s, stage := range hp.stages {
		idx := hp.family.Bucket(s, w1, w2, uint64(len(stage)))
		if c := stage[idx]; c.count > 0 && c.key == k {
			total += c.count
		}
	}
	return total
}

// Records reports one merged record per distinct key held in any stage.
func (hp *HashPipe) Records() []flow.Record {
	return hp.AppendRecords(nil)
}

// AppendRecords appends one merged record per distinct key held in any
// stage to dst and returns the extended slice. Merging duplicates across
// stages still builds a scratch map (a key may sit in several stages), but
// the reported records land in dst without further copies.
func (hp *HashPipe) AppendRecords(dst []flow.Record) []flow.Record {
	merged := make(map[flow.Key]uint32)
	for _, stage := range hp.stages {
		for _, c := range stage {
			if c.count > 0 {
				merged[c.key] += c.count
			}
		}
	}
	for k, v := range merged {
		dst = append(dst, flow.Record{Key: k, Count: v})
	}
	return dst
}

// EstimateCardinality returns the number of distinct keys currently held.
// HashPipe has no auxiliary cardinality estimator, so it badly undercounts
// once flows are evicted — exactly the behaviour Fig. 7 of the paper shows.
func (hp *HashPipe) EstimateCardinality() float64 {
	distinct := make(map[flow.Key]struct{})
	for _, stage := range hp.stages {
		for _, c := range stage {
			if c.count > 0 {
				distinct[c.key] = struct{}{}
			}
		}
	}
	return float64(len(distinct))
}

// MemoryBytes returns the memory footprint of all stages.
func (hp *HashPipe) MemoryBytes() int {
	n := 0
	for _, s := range hp.stages {
		n += len(s) * CellBytes
	}
	return n
}

// Cells returns the total number of cells across stages.
func (hp *HashPipe) Cells() int {
	n := 0
	for _, s := range hp.stages {
		n += len(s)
	}
	return n
}

// OpStats returns cumulative operation counts since the last Reset.
func (hp *HashPipe) OpStats() flow.OpStats { return hp.ops }

// Reset clears all stages and counters.
func (hp *HashPipe) Reset() {
	for _, s := range hp.stages {
		for i := range s {
			s[i] = cell{}
		}
	}
	hp.ops = flow.OpStats{}
}
