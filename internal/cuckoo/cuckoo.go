// Package cuckoo implements a flow table with bucketized cuckoo hashing
// (two hash functions, 4-way buckets) and a bounded kick chain. The
// paper's §II dismisses cuckoo hashing for line-rate flow recording because
// insertion time is unbounded in the worst case; this implementation caps
// the displacement chain at MaxKicks and discards the record left in hand
// when the cap is hit, making the cost bounded but lossy. It exists as a
// comparator that demonstrates exactly that trade-off against HashFlow's
// never-evict main table.
package cuckoo

import (
	"fmt"
	"math/rand/v2"

	"repro/flow"
	"repro/internal/hashing"
)

// Defaults: two hash functions, 4-way buckets (the standard bucketized
// layout, load threshold ~95%), and a 32-displacement cap.
const (
	DefaultMaxKicks = 32
	numTables       = 2
	// BucketSlots is the set-associativity of each bucket.
	BucketSlots = 4
)

// CellBytes is the size of one record: 104-bit key plus 32-bit count.
const CellBytes = flow.KeyBytes + 4

// Config parameterizes a cuckoo flow table.
type Config struct {
	// MemoryBytes bounds the table: MemoryBytes/17 cells split across the
	// two sub-tables.
	MemoryBytes int
	// MaxKicks caps the displacement chain per insertion (default 32).
	MaxKicks int
	// Seed makes hashing and victim selection deterministic.
	Seed uint64
}

type cell struct {
	key   flow.Key
	count uint32
}

// Table is a two-choice, 4-way bucketized cuckoo hash table of flow
// records.
type Table struct {
	cfg     Config
	tables  [numTables][]cell // each a multiple of BucketSlots
	buckets uint64            // buckets per table
	family  *hashing.Family
	rng     *rand.Rand
	ops     flow.OpStats
	evicted uint64 // records discarded at the kick cap
}

// New builds a cuckoo flow table.
func New(cfg Config) (*Table, error) {
	if cfg.MaxKicks == 0 {
		cfg.MaxKicks = DefaultMaxKicks
	}
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("cuckoo: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	if cfg.MaxKicks < 1 {
		return nil, fmt.Errorf("cuckoo: max kicks must be >= 1, got %d", cfg.MaxKicks)
	}
	bucketsPerTable := cfg.MemoryBytes / CellBytes / numTables / BucketSlots
	if bucketsPerTable < 1 {
		return nil, fmt.Errorf("cuckoo: budget of %d bytes holds no buckets", cfg.MemoryBytes)
	}
	t := &Table{
		cfg:     cfg,
		buckets: uint64(bucketsPerTable),
		family:  hashing.NewFamily(numTables, cfg.Seed),
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0xC0C0)),
	}
	for i := range t.tables {
		t.tables[i] = make([]cell, bucketsPerTable*BucketSlots)
	}
	return t, nil
}

// bucket returns the slot slice of the packed key's bucket in the given
// table.
func (t *Table) bucket(table int, w1, w2 uint64) []cell {
	b := t.family.Bucket(table, w1, w2, t.buckets)
	return t.tables[table][b*BucketSlots : (b+1)*BucketSlots]
}

// Update processes one packet.
func (t *Table) Update(p flow.Packet) { t.update(&p, &t.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls —
// RNG draws for displacement happen in identical order — adding the
// operation counts to the recorder's total once per batch.
func (t *Table) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		t.update(&pkts[i], &ops)
	}
	t.ops = t.ops.Add(ops)
}

// update processes one packet, counting operations in ops: increment on
// hit, insert into a free slot, otherwise displace along the cuckoo chain
// up to MaxKicks.
func (t *Table) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	w1, w2 := p.Key.Words()

	// Fast path: hit or free slot in either candidate bucket.
	for i := 0; i < numTables; i++ {
		ops.Hashes++
		b := t.bucket(i, w1, w2)
		ops.MemAccesses++ // one bucket read
		for s := range b {
			if b[s].count > 0 && b[s].key == p.Key {
				b[s].count++
				ops.MemAccesses++
				return
			}
		}
		for s := range b {
			if b[s].count == 0 {
				b[s] = cell{key: p.Key, count: 1}
				ops.MemAccesses++
				return
			}
		}
	}

	// Both candidate buckets are full of other flows: displace. The carried
	// record's key is packed once per kick.
	carried := cell{key: p.Key, count: 1}
	cw1, cw2 := w1, w2
	table := t.rng.IntN(numTables)
	for kick := 0; kick < t.cfg.MaxKicks; kick++ {
		ops.Hashes++
		b := t.bucket(table, cw1, cw2)
		ops.MemAccesses += 2
		victim := t.rng.IntN(BucketSlots)
		carried, b[victim] = b[victim], carried
		if carried.count == 0 {
			return // displaced into a hole
		}
		// The displaced record's alternate bucket is in the other table.
		cw1, cw2 = carried.key.Words()
		table = 1 - table
		// If the alternate bucket has room, settle there.
		alt := t.bucket(table, cw1, cw2)
		ops.Hashes++
		ops.MemAccesses++
		for s := range alt {
			if alt[s].count == 0 {
				alt[s] = carried
				ops.MemAccesses++
				return
			}
		}
	}
	// Kick cap reached: the record in hand — and its whole count — is lost.
	t.evicted++
}

// EstimateSize returns the stored count of a flow, 0 if absent.
func (t *Table) EstimateSize(k flow.Key) uint32 {
	w1, w2 := k.Words()
	for i := 0; i < numTables; i++ {
		for _, c := range t.bucket(i, w1, w2) {
			if c.count > 0 && c.key == k {
				return c.count
			}
		}
	}
	return 0
}

// Records reports every stored flow record.
func (t *Table) Records() []flow.Record {
	return t.AppendRecords(nil)
}

// AppendRecords appends every stored flow record to dst and returns the
// extended slice, allocating only when dst lacks capacity.
func (t *Table) AppendRecords(dst []flow.Record) []flow.Record {
	for i := range t.tables {
		for _, c := range t.tables[i] {
			if c.count > 0 {
				dst = append(dst, flow.Record{Key: c.key, Count: c.count})
			}
		}
	}
	return dst
}

// EstimateCardinality returns the number of stored records; like HashPipe,
// a cuckoo table has no summarized region to estimate dropped flows.
func (t *Table) EstimateCardinality() float64 {
	n := 0
	for i := range t.tables {
		for _, c := range t.tables[i] {
			if c.count > 0 {
				n++
			}
		}
	}
	return float64(n)
}

// Evicted returns the number of records discarded at the kick cap.
func (t *Table) Evicted() uint64 { return t.evicted }

// Cells returns the total number of cells.
func (t *Table) Cells() int { return len(t.tables[0]) + len(t.tables[1]) }

// MemoryBytes returns the table footprint.
func (t *Table) MemoryBytes() int { return t.Cells() * CellBytes }

// OpStats returns cumulative operation counts since the last Reset. The
// long displacement chains appear as a high and variable hashes-per-packet
// figure under load — the paper's §II objection.
func (t *Table) OpStats() flow.OpStats { return t.ops }

// Reset clears the table and counters.
func (t *Table) Reset() {
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = cell{}
		}
	}
	t.ops = flow.OpStats{}
	t.evicted = 0
	t.rng = rand.New(rand.NewPCG(t.cfg.Seed, 0xC0C0))
}
