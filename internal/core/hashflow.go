// Package core implements HashFlow, the paper's primary contribution: a
// flow-record hash table with a non-evicting collision-resolution strategy
// on a main table and a digest-keyed ancillary table with record promotion.
//
// The main table comes in the two organizations analyzed in §III of the
// paper: a single multi-hash table probed by d independent hash functions,
// or d pipelined sub-tables whose sizes decrease geometrically with weight
// α (n_{k+1} = α·n_k). The evaluation default is the pipelined layout with
// d = 3 and α = 0.7.
package core

import (
	"fmt"
	"math"

	"repro/flow"
	"repro/internal/hashing"
	"repro/internal/sketch"
)

// Default parameter values from the paper's evaluation (§IV-A).
const (
	DefaultDepth      = 3
	DefaultAlpha      = 0.7
	DefaultDigestBits = 8

	// MainCellBytes is the size of one main-table record: a 104-bit flow ID
	// plus a 32-bit packet counter.
	MainCellBytes = flow.KeyBytes + 4
	// AncillaryCellBytes is the size of one ancillary record: an 8-bit
	// digest plus an 8-bit counter.
	AncillaryCellBytes = 2
)

// Config parameterizes a HashFlow instance.
type Config struct {
	// MemoryBytes is the total memory budget shared by the main and
	// ancillary tables. Per the paper, both tables get the same number of
	// cells, so a budget B yields B/19 cells each.
	MemoryBytes int
	// Depth is the number of hash functions (multi-hash) or sub-tables
	// (pipelined). Defaults to 3.
	Depth int
	// Pipelined selects the pipelined sub-table layout instead of a single
	// multi-hash table.
	Pipelined bool
	// Alpha is the pipeline weight: sub-table k+1 has α times the buckets
	// of sub-table k. Only used when Pipelined. Defaults to 0.7.
	Alpha float64
	// DigestBits is the width of the ancillary-table digest (1..8 bits).
	// Defaults to 8.
	DigestBits int
	// DisablePromotion turns off record promotion (ablation only).
	DisablePromotion bool
	// Seed makes the hash family deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.DigestBits == 0 {
		c.DigestBits = DefaultDigestBits
	}
	return c
}

func (c Config) validate() error {
	if c.MemoryBytes <= 0 {
		return fmt.Errorf("core: memory budget must be positive, got %d", c.MemoryBytes)
	}
	if c.Depth < 1 || c.Depth > 16 {
		return fmt.Errorf("core: depth must be in [1,16], got %d", c.Depth)
	}
	if c.Pipelined && (c.Alpha <= 0 || c.Alpha >= 1) {
		return fmt.Errorf("core: pipeline weight must be in (0,1), got %v", c.Alpha)
	}
	if c.DigestBits < 1 || c.DigestBits > 8 {
		return fmt.Errorf("core: digest width must be in [1,8] bits, got %d", c.DigestBits)
	}
	return nil
}

type bucket struct {
	key   flow.Key
	count uint32
}

type ancCell struct {
	digest uint8
	count  uint8
}

// HashFlow maintains accurate records for elephant flows in its main table
// and summarized (digest, count) records for mice flows in its ancillary
// table, per Algorithm 1 of the paper.
type HashFlow struct {
	cfg    Config
	tables [][]bucket
	anc    []ancCell
	family *hashing.Family // functions 0..Depth-1 probe the main table, Depth indexes the ancillary table
	dmask  uint8
	ops    flow.OpStats
}

// New builds a HashFlow instance from cfg, applying paper defaults for
// unset fields.
func New(cfg Config) (*HashFlow, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cells := cfg.MemoryBytes / (MainCellBytes + AncillaryCellBytes)
	if cells < cfg.Depth {
		return nil, fmt.Errorf("core: budget of %d bytes yields %d cells, fewer than depth %d",
			cfg.MemoryBytes, cells, cfg.Depth)
	}
	h := &HashFlow{
		cfg:    cfg,
		anc:    make([]ancCell, cells),
		family: hashing.NewFamily(cfg.Depth+1, cfg.Seed),
		dmask:  uint8(1<<cfg.DigestBits - 1),
	}
	if cfg.Pipelined {
		sizes := pipelineSizes(cells, cfg.Depth, cfg.Alpha)
		h.tables = make([][]bucket, cfg.Depth)
		for i, n := range sizes {
			h.tables[i] = make([]bucket, n)
		}
	} else {
		h.tables = [][]bucket{make([]bucket, cells)}
	}
	return h, nil
}

// pipelineSizes splits cells buckets into depth sub-tables with sizes
// decreasing geometrically by alpha, guaranteeing every sub-table gets at
// least one bucket and the sizes sum exactly to cells.
func pipelineSizes(cells, depth int, alpha float64) []int {
	sizes := make([]int, depth)
	n1 := float64(cells) * (1 - alpha) / (1 - math.Pow(alpha, float64(depth)))
	used := 0
	for k := 0; k < depth; k++ {
		n := int(math.Round(n1 * math.Pow(alpha, float64(k))))
		if n < 1 {
			n = 1
		}
		sizes[k] = n
		used += n
	}
	// Push the rounding residue into the first (largest) table.
	sizes[0] += cells - used
	if sizes[0] < 1 {
		sizes[0] = 1
	}
	return sizes
}

// probe returns the sub-table index and bucket index the k-th hash function
// maps the key to.
func (h *HashFlow) probe(k int, w1, w2 uint64) (int, uint64) {
	if h.cfg.Pipelined {
		t := h.tables[k]
		return k, hashing.Reduce(h.family.Hash(k, w1, w2), uint64(len(t)))
	}
	return 0, hashing.Reduce(h.family.Hash(k, w1, w2), uint64(len(h.tables[0])))
}

// Update processes one packet following Algorithm 1.
func (h *HashFlow) Update(p flow.Packet) { h.update(&p, &h.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls,
// adding the operation counts to the recorder's total once per batch.
func (h *HashFlow) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		h.update(&pkts[i], &ops)
	}
	h.ops = h.ops.Add(ops)
}

// update is Algorithm 1 for one packet: collision resolution over the main
// table, then the ancillary table with record promotion. Its operation
// counts go to ops.
func (h *HashFlow) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	w1, w2 := p.Key.Words()

	// The digest is derived from the first hash result, costing no extra
	// hash computation (Algorithm 1, line 15).
	h0 := h.family.Hash(0, w1, w2)
	digest := uint8(h0) & h.dmask

	// Collision resolution over the d main-table probes.
	minCount := uint32(math.MaxUint32)
	posT, posI := -1, uint64(0)
	for k := 0; k < h.cfg.Depth; k++ {
		ops.Hashes++
		var t int
		var i uint64
		if k == 0 {
			// Both layouts probe tables[0] with hash 0 first.
			i = hashing.Reduce(h0, uint64(len(h.tables[0])))
		} else {
			t, i = h.probe(k, w1, w2)
		}
		b := &h.tables[t][i]
		ops.MemAccesses++
		if b.count == 0 {
			b.key = p.Key
			b.count = 1
			ops.MemAccesses++
			return
		}
		if b.key == p.Key {
			b.count++
			ops.MemAccesses++
			return
		}
		if b.count < minCount {
			minCount = b.count
			posT, posI = t, i
		}
	}

	// Ancillary table.
	ops.Hashes++
	ai := hashing.Reduce(h.family.Hash(h.cfg.Depth, w1, w2), uint64(len(h.anc)))
	a := &h.anc[ai]
	ops.MemAccesses++
	switch {
	case a.count == 0 || a.digest != digest:
		// Empty, or collision with a different flow: replace (discard the
		// incumbent mouse).
		a.digest = digest
		a.count = 1
		ops.MemAccesses++
	case uint32(a.count) < minCount || h.cfg.DisablePromotion:
		if a.count < math.MaxUint8 {
			a.count++
			ops.MemAccesses++
		}
	default:
		// Record promotion: the ancillary record has grown to the size of
		// the smallest colliding main-table record (the sentinel); re-insert
		// it into the main table, evicting the sentinel.
		mb := &h.tables[posT][posI]
		mb.key = p.Key
		mb.count = uint32(a.count) + 1
		ops.MemAccesses++
	}
}

// EstimateSize returns the recorded packet count for a flow: the exact
// main-table count if present, else the ancillary count if the digest
// matches, else 0.
func (h *HashFlow) EstimateSize(k flow.Key) uint32 {
	w1, w2 := k.Words()
	for d := 0; d < h.cfg.Depth; d++ {
		t, i := h.probe(d, w1, w2)
		if b := h.tables[t][i]; b.count > 0 && b.key == k {
			return b.count
		}
	}
	digest := uint8(h.family.Hash(0, w1, w2)) & h.dmask
	ai := hashing.Reduce(h.family.Hash(h.cfg.Depth, w1, w2), uint64(len(h.anc)))
	if a := h.anc[ai]; a.count > 0 && a.digest == digest {
		return uint32(a.count)
	}
	return 0
}

// Records reports every main-table flow record. Ancillary records carry
// only digests, not flow IDs, so they cannot be reported.
func (h *HashFlow) Records() []flow.Record {
	return h.AppendRecords(make([]flow.Record, 0, h.Occupied()))
}

// AppendRecords appends every main-table flow record to dst and returns
// the extended slice, allocating only when dst lacks capacity.
func (h *HashFlow) AppendRecords(dst []flow.Record) []flow.Record {
	for _, t := range h.tables {
		for _, b := range t {
			if b.count > 0 {
				dst = append(dst, flow.Record{Key: b.key, Count: b.count})
			}
		}
	}
	return dst
}

// EstimateCardinality estimates the number of distinct flows as the number
// of occupied main-table buckets plus a linear-counting estimate over the
// ancillary table (§IV-A of the paper).
func (h *HashFlow) EstimateCardinality() float64 {
	empty := 0
	for _, a := range h.anc {
		if a.count == 0 {
			empty++
		}
	}
	return float64(h.Occupied()) + sketch.LinearCount(len(h.anc), empty)
}

// Occupied returns the number of non-empty main-table buckets.
func (h *HashFlow) Occupied() int {
	n := 0
	for _, t := range h.tables {
		for _, b := range t {
			if b.count > 0 {
				n++
			}
		}
	}
	return n
}

// MainCells returns the total number of main-table buckets.
func (h *HashFlow) MainCells() int {
	n := 0
	for _, t := range h.tables {
		n += len(t)
	}
	return n
}

// AncillaryCells returns the number of ancillary-table cells.
func (h *HashFlow) AncillaryCells() int { return len(h.anc) }

// TableSizes returns the bucket count of each main sub-table (one entry for
// the multi-hash layout).
func (h *HashFlow) TableSizes() []int {
	sizes := make([]int, len(h.tables))
	for i, t := range h.tables {
		sizes[i] = len(t)
	}
	return sizes
}

// Utilization returns the fraction of occupied main-table buckets.
func (h *HashFlow) Utilization() float64 {
	return float64(h.Occupied()) / float64(h.MainCells())
}

// MemoryBytes returns the configured memory footprint of both tables.
func (h *HashFlow) MemoryBytes() int {
	return h.MainCells()*MainCellBytes + len(h.anc)*AncillaryCellBytes
}

// OpStats returns cumulative operation counts since the last Reset.
func (h *HashFlow) OpStats() flow.OpStats { return h.ops }

// Reset clears all tables and counters.
func (h *HashFlow) Reset() {
	for _, t := range h.tables {
		for i := range t {
			t[i] = bucket{}
		}
	}
	for i := range h.anc {
		h.anc[i] = ancCell{}
	}
	h.ops = flow.OpStats{}
}
