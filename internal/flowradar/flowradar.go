// Package flowradar implements FlowRadar (Li et al., NSDI 2016) as
// parameterized in the HashFlow paper's evaluation: a Bloom filter with 4
// hash functions detecting new flows, and a counting table of
// (FlowXOR, FlowCount, PacketCount) cells updated through 3 hash functions,
// with 40 Bloom bits per counting cell. Flow records are recovered by the
// standard IBLT-style singleton peeling decode.
package flowradar

import (
	"fmt"

	"repro/flow"
	"repro/internal/hashing"
	"repro/internal/sketch"
)

// Defaults from the paper's evaluation (§IV-A).
const (
	DefaultBloomHashes      = 4
	DefaultCellHashes       = 3
	DefaultBloomBitsPerCell = 40
)

// CellBytes is the size of one counting-table cell: a 104-bit FlowXOR
// field, a 32-bit flow count and a 32-bit packet count.
const CellBytes = flow.KeyBytes + 4 + 4

// Config parameterizes a FlowRadar instance.
type Config struct {
	// MemoryBytes is the total budget for the counting table plus the Bloom
	// filter. With 40 Bloom bits (5 bytes) per 21-byte cell, a budget B
	// yields B/26 cells.
	MemoryBytes int
	// BloomHashes is the number of Bloom filter hash functions (default 4).
	BloomHashes int
	// CellHashes is the number of counting-table hash functions (default 3).
	CellHashes int
	// BloomBitsPerCell scales the Bloom filter relative to the counting
	// table (default 40).
	BloomBitsPerCell int
	// Seed makes the hash families deterministic.
	Seed uint64
}

type cell struct {
	flowXOR     flow.Key
	flowCount   uint32
	packetCount uint32
}

// FlowRadar is the coded flow set recorder.
type FlowRadar struct {
	cfg    Config
	bloom  *sketch.Bloom
	cells  []cell
	family *hashing.Family
	ops    flow.OpStats

	decoded    map[flow.Key]uint32
	decodeOK   bool // decode drained every cell
	decodeDone bool // cache validity
}

// New builds a FlowRadar with cfg, applying defaults for unset fields.
func New(cfg Config) (*FlowRadar, error) {
	if cfg.BloomHashes == 0 {
		cfg.BloomHashes = DefaultBloomHashes
	}
	if cfg.CellHashes == 0 {
		cfg.CellHashes = DefaultCellHashes
	}
	if cfg.BloomBitsPerCell == 0 {
		cfg.BloomBitsPerCell = DefaultBloomBitsPerCell
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("flowradar: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.CellHashes < 1 || cfg.BloomHashes < 1 {
		return nil, fmt.Errorf("flowradar: hash counts must be positive, got bloom=%d cells=%d",
			cfg.BloomHashes, cfg.CellHashes)
	}
	// cells*CellBytes + cells*bitsPerCell/8 <= MemoryBytes
	denom := CellBytes + (cfg.BloomBitsPerCell+7)/8
	cells := cfg.MemoryBytes / denom
	if cells < cfg.CellHashes {
		return nil, fmt.Errorf("flowradar: budget of %d bytes yields %d cells, fewer than %d hashes",
			cfg.MemoryBytes, cells, cfg.CellHashes)
	}
	bloom, err := sketch.NewBloom(cells*cfg.BloomBitsPerCell, cfg.BloomHashes, cfg.Seed^0xB100)
	if err != nil {
		return nil, fmt.Errorf("flowradar: bloom filter: %w", err)
	}
	return &FlowRadar{
		cfg:    cfg,
		bloom:  bloom,
		cells:  make([]cell, cells),
		family: hashing.NewFamily(cfg.CellHashes, cfg.Seed),
	}, nil
}

// positions appends the deduplicated counting-table indices of the key to
// buf. Insertion and decode must use identical index sets, so duplicates
// produced by colliding hash functions are removed once here.
func (fr *FlowRadar) positions(w1, w2 uint64, buf []uint64) []uint64 {
	n := uint64(len(fr.cells))
	for i := 0; i < fr.cfg.CellHashes; i++ {
		p := fr.family.Bucket(i, w1, w2, n)
		dup := false
		for _, q := range buf {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, p)
		}
	}
	return buf
}

// Update processes one packet.
func (fr *FlowRadar) Update(p flow.Packet) { fr.update(&p, &fr.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls,
// adding the operation counts to the recorder's total once per batch.
func (fr *FlowRadar) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		fr.update(&pkts[i], &ops)
	}
	fr.ops = fr.ops.Add(ops)
}

// update processes one packet, counting operations in ops: a Bloom miss
// marks a new flow (encode its ID into the coded flow set), and every
// packet increments the packet counts of the flow's cells. One
// AddIfMissing probe both tests and sets the Bloom bits, so the counts
// model switch cost: BloomHashes hashes, plus the bit writes of a new flow.
func (fr *FlowRadar) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	fr.decodeDone = false
	w1, w2 := p.Key.Words()

	isNew := fr.bloom.AddIfMissing(w1, w2)
	ops.Hashes += uint64(fr.cfg.BloomHashes)
	ops.MemAccesses += uint64(fr.cfg.BloomHashes)
	if isNew {
		ops.MemAccesses += uint64(fr.cfg.BloomHashes)
	}

	var posBuf [8]uint64
	pos := fr.positions(w1, w2, posBuf[:0])
	ops.Hashes += uint64(fr.cfg.CellHashes)
	for _, idx := range pos {
		c := &fr.cells[idx]
		ops.MemAccesses += 2
		if isNew {
			c.flowXOR = c.flowXOR.XOR(p.Key)
			c.flowCount++
		}
		c.packetCount++
	}
}

// decode runs singleton peeling over a scratch copy of the counting table
// and caches the recovered records.
func (fr *FlowRadar) decode() {
	if fr.decodeDone {
		return
	}
	work := make([]cell, len(fr.cells))
	copy(work, fr.cells)

	queue := make([]int, 0, len(work))
	for i := range work {
		if work[i].flowCount == 1 {
			queue = append(queue, i)
		}
	}

	decoded := make(map[flow.Key]uint32)
	var posBuf [8]uint64
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c := work[idx]
		if c.flowCount != 1 {
			continue
		}
		key := c.flowXOR
		pkts := c.packetCount

		// Verify the candidate actually hashes to this cell; XOR residue of
		// colliding flows can masquerade as a singleton.
		w1, w2 := key.Words()
		pos := fr.positions(w1, w2, posBuf[:0])
		owns := false
		for _, p := range pos {
			if int(p) == idx {
				owns = true
				break
			}
		}
		if !owns {
			continue
		}

		decoded[key] = pkts
		for _, p := range pos {
			w := &work[p]
			w.flowXOR = w.flowXOR.XOR(key)
			w.flowCount--
			w.packetCount -= pkts
			if w.flowCount == 1 {
				queue = append(queue, int(p))
			}
		}
	}

	ok := true
	for i := range work {
		if work[i].flowCount != 0 {
			ok = false
			break
		}
	}
	fr.decoded = decoded
	fr.decodeOK = ok
	fr.decodeDone = true
}

// EstimateSize returns the decoded packet count of a flow, or 0 when the
// flow could not be decoded.
func (fr *FlowRadar) EstimateSize(k flow.Key) uint32 {
	fr.decode()
	return fr.decoded[k]
}

// Records returns the successfully decoded flow records.
func (fr *FlowRadar) Records() []flow.Record {
	fr.decode()
	return fr.AppendRecords(make([]flow.Record, 0, len(fr.decoded)))
}

// AppendRecords appends the successfully decoded flow records to dst and
// returns the extended slice. The decode itself is cached between updates,
// so repeated extraction into a reused dst does not re-run it.
func (fr *FlowRadar) AppendRecords(dst []flow.Record) []flow.Record {
	fr.decode()
	for k, v := range fr.decoded {
		dst = append(dst, flow.Record{Key: k, Count: v})
	}
	return dst
}

// DecodeComplete reports whether the last decode drained every cell, i.e.
// every inserted flow was recovered.
func (fr *FlowRadar) DecodeComplete() bool {
	fr.decode()
	return fr.decodeOK
}

// EstimateCardinality estimates the number of distinct flows from the Bloom
// filter fill ratio, independent of decode success.
func (fr *FlowRadar) EstimateCardinality() float64 {
	return fr.bloom.EstimateCardinality()
}

// MemoryBytes returns the combined footprint of the counting table and the
// Bloom filter.
func (fr *FlowRadar) MemoryBytes() int {
	return len(fr.cells)*CellBytes + len(fr.cells)*fr.cfg.BloomBitsPerCell/8
}

// Cells returns the number of counting-table cells.
func (fr *FlowRadar) Cells() int { return len(fr.cells) }

// OpStats returns cumulative operation counts since the last Reset.
func (fr *FlowRadar) OpStats() flow.OpStats { return fr.ops }

// Reset clears the filter, the counting table and all counters.
func (fr *FlowRadar) Reset() {
	fr.bloom.Reset()
	for i := range fr.cells {
		fr.cells[i] = cell{}
	}
	fr.ops = flow.OpStats{}
	fr.decoded = nil
	fr.decodeOK = false
	fr.decodeDone = false
}
