// Package spacesaving implements the Space-Saving algorithm (Metwally et
// al., ICDT 2005), the classic counter-based heavy-hitter structure that
// HashPipe's own evaluation compares against. It keeps a fixed set of
// (key, count, error) entries; a packet from an untracked flow replaces the
// minimum entry, inheriting its count as overestimation error.
//
// This implementation uses a min-heap over counts with a key index,
// giving O(log n) updates — faithful to the algorithm's standard software
// form (the reason it is hard to implement in a switch pipeline, which is
// HashPipe's motivation).
package spacesaving

import (
	"container/heap"
	"fmt"

	"repro/flow"
)

// EntryBytes approximates one entry: key (13 B) + count (4 B) + error
// (4 B) + heap index (4 B).
const EntryBytes = flow.KeyBytes + 12

// Config parameterizes a Space-Saving summary.
type Config struct {
	// MemoryBytes bounds the number of tracked entries (MemoryBytes/25).
	MemoryBytes int
	// Seed is accepted for interface symmetry; the algorithm is
	// deterministic and ignores it.
	Seed uint64
}

type entry struct {
	key   flow.Key
	count uint32
	err   uint32 // overestimation inherited at replacement
	idx   int    // position in the heap
}

// Summary is a Space-Saving stream summary.
type Summary struct {
	capacity int
	entries  map[flow.Key]*entry
	h        entryHeap
	ops      flow.OpStats
}

// New builds a Space-Saving summary.
func New(cfg Config) (*Summary, error) {
	if cfg.MemoryBytes <= 0 {
		return nil, fmt.Errorf("spacesaving: memory budget must be positive, got %d", cfg.MemoryBytes)
	}
	capacity := cfg.MemoryBytes / EntryBytes
	if capacity < 1 {
		return nil, fmt.Errorf("spacesaving: budget of %d bytes holds no entries", cfg.MemoryBytes)
	}
	return &Summary{
		capacity: capacity,
		entries:  make(map[flow.Key]*entry, capacity),
	}, nil
}

// Capacity returns the maximum number of tracked flows.
func (s *Summary) Capacity() int { return s.capacity }

// Update processes one packet.
func (s *Summary) Update(p flow.Packet) { s.update(&p, &s.ops) }

// UpdateBatch processes pkts in order, exactly as repeated Update calls,
// adding the operation counts to the recorder's total once per batch.
func (s *Summary) UpdateBatch(pkts []flow.Packet) {
	var ops flow.OpStats
	for i := range pkts {
		s.update(&pkts[i], &ops)
	}
	s.ops = s.ops.Add(ops)
}

// update processes one packet, counting operations in ops.
func (s *Summary) update(p *flow.Packet, ops *flow.OpStats) {
	ops.Packets++
	ops.MemAccesses++
	if e, ok := s.entries[p.Key]; ok {
		e.count++
		heap.Fix(&s.h, e.idx)
		ops.MemAccesses++
		return
	}
	if len(s.entries) < s.capacity {
		e := &entry{key: p.Key, count: 1}
		s.entries[p.Key] = e
		heap.Push(&s.h, e)
		ops.MemAccesses++
		return
	}
	// Replace the minimum entry; the newcomer inherits its count as error.
	min := s.h[0]
	delete(s.entries, min.key)
	newEntry := &entry{key: p.Key, count: min.count + 1, err: min.count, idx: 0}
	s.entries[p.Key] = newEntry
	s.h[0] = newEntry
	heap.Fix(&s.h, 0)
	ops.MemAccesses += 2
}

// EstimateSize returns the (over)estimated count of a tracked flow, 0 if
// untracked. Space-Saving guarantees estimate >= true count for tracked
// flows.
func (s *Summary) EstimateSize(k flow.Key) uint32 {
	if e, ok := s.entries[k]; ok {
		return e.count
	}
	return 0
}

// GuaranteedCount returns the lower bound count − error for a tracked flow.
func (s *Summary) GuaranteedCount(k flow.Key) uint32 {
	if e, ok := s.entries[k]; ok {
		return e.count - e.err
	}
	return 0
}

// Records reports every tracked flow with its estimated count.
func (s *Summary) Records() []flow.Record {
	return s.AppendRecords(make([]flow.Record, 0, len(s.entries)))
}

// AppendRecords appends every tracked flow with its estimated count to dst
// and returns the extended slice, allocating only when dst lacks capacity.
func (s *Summary) AppendRecords(dst []flow.Record) []flow.Record {
	for k, e := range s.entries {
		dst = append(dst, flow.Record{Key: k, Count: e.count})
	}
	return dst
}

// EstimateCardinality returns the number of tracked flows — like HashPipe,
// a bare counter summary cannot see beyond its capacity.
func (s *Summary) EstimateCardinality() float64 {
	return float64(len(s.entries))
}

// MemoryBytes returns the configured footprint.
func (s *Summary) MemoryBytes() int { return s.capacity * EntryBytes }

// OpStats returns cumulative operation counts. Space-Saving hashes nothing
// (map-based), but its heap maintenance shows up as memory accesses.
func (s *Summary) OpStats() flow.OpStats { return s.ops }

// Reset clears the summary.
func (s *Summary) Reset() {
	s.entries = make(map[flow.Key]*entry, s.capacity)
	s.h = nil
	s.ops = flow.OpStats{}
}

// entryHeap is a min-heap over entry counts.
type entryHeap []*entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *entryHeap) Push(x any) {
	e, ok := x.(*entry)
	if !ok {
		return
	}
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
