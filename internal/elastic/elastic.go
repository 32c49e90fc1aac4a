// Package elastic implements the hardware version of ElasticSketch (Yang et
// al., SIGCOMM 2018) as parameterized in the HashFlow paper's evaluation:
// a heavy part of 3 sub-tables holding (key, vote+, vote−, flag) buckets
// with λ-ratio eviction, and a light part that is a single-array count-min
// sketch of 8-bit counters with the same number of cells as the heavy part.
package elastic

import (
	"fmt"

	"repro/flow"
	"repro/internal/hashing"
	"repro/internal/sketch"
)

// Defaults from the papers: 3 heavy sub-tables, eviction threshold λ = 8.
const (
	DefaultSubTables = 3
	DefaultLambda    = 8
)

// HeavyCellBytes is the size of one heavy bucket: 104-bit key, 32-bit
// vote+, 32-bit vote−, and a flag byte.
const HeavyCellBytes = flow.KeyBytes + 4 + 4 + 1

// LightCellBytes is the size of one light counter (8 bits).
const LightCellBytes = 1

// Config parameterizes an ElasticSketch instance.
type Config struct {
	// MemoryBytes is the total budget. Heavy and light parts get the same
	// number of cells, so a budget B yields B/23 cells each.
	MemoryBytes int
	// SubTables is the number of heavy sub-tables (default 3).
	SubTables int
	// Lambda is the eviction threshold: a bucket's incumbent is evicted to
	// the light part when vote− ≥ λ·vote+ (default 8).
	Lambda int
	// Seed makes the hash family deterministic.
	Seed uint64
}

type heavyBucket struct {
	key       flow.Key
	votePlus  uint32
	voteMinus uint32
	flag      bool // true if the flow may also have packets in the light part
}

// Elastic is the hardware-version ElasticSketch.
type Elastic struct {
	cfg    Config
	heavy  [][]heavyBucket
	light  *sketch.CountMin
	family *hashing.Family
	ops    flow.OpStats
}

// New builds an ElasticSketch with cfg, applying defaults for unset fields.
func New(cfg Config) (*Elastic, error) {
	if cfg.SubTables == 0 {
		cfg.SubTables = DefaultSubTables
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = DefaultLambda
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("elastic: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.SubTables < 1 || cfg.SubTables > 8 {
		return nil, fmt.Errorf("elastic: sub-tables must be in [1,8], got %d", cfg.SubTables)
	}
	if cfg.Lambda < 1 {
		return nil, fmt.Errorf("elastic: lambda must be positive, got %d", cfg.Lambda)
	}
	cells := cfg.MemoryBytes / (HeavyCellBytes + LightCellBytes)
	per := cells / cfg.SubTables
	if per < 1 {
		return nil, fmt.Errorf("elastic: budget of %d bytes leaves no heavy cells", cfg.MemoryBytes)
	}
	light, err := sketch.NewCountMin(1, cells, 8, cfg.Seed^0xE1A5)
	if err != nil {
		return nil, fmt.Errorf("elastic: light part: %w", err)
	}
	e := &Elastic{
		cfg:    cfg,
		heavy:  make([][]heavyBucket, cfg.SubTables),
		light:  light,
		family: hashing.NewFamily(cfg.SubTables, cfg.Seed),
	}
	for i := range e.heavy {
		e.heavy[i] = make([]heavyBucket, per)
	}
	return e, nil
}

// Update processes one packet.
func (e *Elastic) Update(p flow.Packet) { e.update(&p, &e.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls,
// adding the operation counts to the recorder's total once per batch.
func (e *Elastic) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		e.update(&pkts[i], &ops)
	}
	e.ops = e.ops.Add(ops)
}

// update processes one packet, counting operations in ops: try each heavy
// sub-table for an empty or matching bucket; on total miss, vote against
// the smallest colliding bucket and either spill the packet to the light
// part or evict the incumbent when the vote ratio reaches λ.
func (e *Elastic) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	w1, w2 := p.Key.Words()

	var minB *heavyBucket
	for s := range e.heavy {
		idx := e.family.Bucket(s, w1, w2, uint64(len(e.heavy[s])))
		ops.Hashes++
		ops.MemAccesses++
		b := &e.heavy[s][idx]
		if b.votePlus == 0 {
			*b = heavyBucket{key: p.Key, votePlus: 1}
			ops.MemAccesses++
			return
		}
		if b.key == p.Key {
			b.votePlus++
			ops.MemAccesses++
			return
		}
		if minB == nil || b.votePlus < minB.votePlus {
			minB = b
		}
	}

	minB.voteMinus++
	ops.MemAccesses++
	if minB.voteMinus >= uint32(e.cfg.Lambda)*minB.votePlus {
		// Evict the incumbent to the light part; the incoming flow takes
		// the bucket with flag set, since its earlier packets (this one
		// included) may live in the light part.
		ew1, ew2 := minB.key.Words()
		e.light.Add(ew1, ew2, minB.votePlus)
		ops.Hashes++
		*minB = heavyBucket{key: p.Key, votePlus: 1, voteMinus: 1, flag: true}
		ops.MemAccesses++
		return
	}
	// No eviction: the packet itself goes to the light part.
	e.light.Add(w1, w2, 1)
	ops.Hashes++
	ops.MemAccesses += 2
}

// EstimateSize returns vote+ for heavy-part flows (plus the light estimate
// when the flag indicates spilled packets), or the light estimate alone.
func (e *Elastic) EstimateSize(k flow.Key) uint32 {
	w1, w2 := k.Words()
	for s := range e.heavy {
		idx := e.family.Bucket(s, w1, w2, uint64(len(e.heavy[s])))
		if b := e.heavy[s][idx]; b.votePlus > 0 && b.key == k {
			if b.flag {
				return b.votePlus + e.light.Estimate(w1, w2)
			}
			return b.votePlus
		}
	}
	return e.light.Estimate(w1, w2)
}

// Records reports every heavy-part flow with its estimated size. Light-part
// flows have no stored keys and cannot be enumerated.
func (e *Elastic) Records() []flow.Record {
	return e.AppendRecords(nil)
}

// AppendRecords appends every heavy-part flow with its estimated size to
// dst and returns the extended slice, allocating only when dst lacks
// capacity.
func (e *Elastic) AppendRecords(dst []flow.Record) []flow.Record {
	for _, t := range e.heavy {
		for _, b := range t {
			if b.votePlus == 0 {
				continue
			}
			count := b.votePlus
			if b.flag {
				w1, w2 := b.key.Words()
				count += e.light.Estimate(w1, w2)
			}
			dst = append(dst, flow.Record{Key: b.key, Count: count})
		}
	}
	return dst
}

// EstimateCardinality combines the heavy-part occupancy with linear
// counting over the light array, the estimator §IV-A attributes to
// ElasticSketch.
func (e *Elastic) EstimateCardinality() float64 {
	occupied := 0
	for _, t := range e.heavy {
		for _, b := range t {
			if b.votePlus > 0 {
				occupied++
			}
		}
	}
	return float64(occupied) + e.light.EstimateCardinality()
}

// MemoryBytes returns the combined footprint of both parts.
func (e *Elastic) MemoryBytes() int {
	cells := 0
	for _, t := range e.heavy {
		cells += len(t)
	}
	return cells*HeavyCellBytes + e.light.MemoryBytes()
}

// HeavyCells returns the total number of heavy buckets.
func (e *Elastic) HeavyCells() int {
	n := 0
	for _, t := range e.heavy {
		n += len(t)
	}
	return n
}

// OpStats returns cumulative operation counts since the last Reset.
func (e *Elastic) OpStats() flow.OpStats { return e.ops }

// Reset clears both parts and the counters.
func (e *Elastic) Reset() {
	for _, t := range e.heavy {
		for i := range t {
			t[i] = heavyBucket{}
		}
	}
	e.light.Reset()
	e.ops = flow.OpStats{}
}
