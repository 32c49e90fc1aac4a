// Package topk maintains the heavy hitters of a flow-record stream online,
// so "who are the biggest flows right now?" is answered from a small
// always-current summary instead of dumping and filtering a full epoch per
// query.
//
// Tracker is a Space-Saving summary (Metwally et al., ICDT 2005) laid out
// for the publish hot path: entries live in one flat array indexed by a
// key map, the minimum is tracked by an intrusive 4-ary min-heap of slot
// indices, and updates are O(log capacity) with no per-update allocation.
// Unlike the paper-faithful heap-of-pointers baseline in
// internal/spacesaving, Tracker takes weighted increments (Add,
// AddRecords), so the collector feeds it each drained epoch's decoded
// flow records, and it exposes zero-allocation snapshots (AppendTopK,
// AppendSorted) for the query path.
//
// Tracker is internally synchronized: the epoch publisher updates it while
// query handlers snapshot it concurrently.
package topk

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/flow"
	"repro/internal/hashing"
)

// EntryBytes approximates the memory footprint of one tracked entry:
// the entry struct (key 13 B padded + digest 8 B + count 4 B + error
// 4 B + heap position 4 B ≈ 40 B), its heap node (8 B), and its share
// of the open-addressing index (2 slots of 8 B at <=50% load).
const EntryBytes = 64

// entry is one tracked flow.
type entry struct {
	key   flow.Key
	hash  uint64 // the key's digest, kept so eviction never re-hashes
	count uint32
	err   uint32 // overestimation inherited when the slot was recycled
	pos   int32  // position in the heap
}

// heapNode is one min-heap element. The count is duplicated out of the
// entry so sift comparisons stay inside this compact (8 B/element,
// L1-resident) array instead of chasing random entry loads; the entry's
// count remains authoritative and the node copy is refreshed on every
// change.
type heapNode struct {
	count uint32
	slot  int32
}

// Tracker is an online Space-Saving heavy-hitter summary.
type Tracker struct {
	mu       sync.Mutex
	capacity int
	entries  []entry
	heap     []heapNode // min-heap over entry counts
	packets  uint64

	// idx is the digest-indexed key index: an open-addressing table
	// (linear probing, backward-shift deletion, <=50% load) instead of a
	// Go map — each lookup is one cheap KeyHash plus a compact probe
	// chain instead of the runtime map machinery. Each slot packs
	// the key's 32-bit hash fingerprint (high word) with slot+1 (low
	// word, 0 = empty), so probe mismatches and the eviction-time
	// backward shift resolve inside this one array without loading
	// entries.
	idx []uint64

	// scratch backs the zero-allocation snapshots; it is reused across
	// AppendTopK/AppendSorted calls under mu.
	scratch []flow.Record
}

// tableSeed salts the tracker's digest independently of the shard router
// and the recorder hash families.
const tableSeed = 0x70b1

// NewTracker builds a tracker holding at most capacity flows.
func NewTracker(capacity int) (*Tracker, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("topk: capacity must be positive, got %d", capacity)
	}
	return &Tracker{
		capacity: capacity,
		entries:  make([]entry, 0, capacity),
		heap:     make([]heapNode, 0, capacity),
		idx:      make([]uint64, 1<<bits.Len(uint(2*capacity-1))),
	}, nil
}

// Capacity returns the maximum number of tracked flows.
func (t *Tracker) Capacity() int { return t.capacity }

// Len returns the number of currently tracked flows.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Packets returns the total packet weight absorbed since the last Reset.
func (t *Tracker) Packets() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.packets
}

// Add credits w packets to key.
func (t *Tracker) Add(key flow.Key, w uint32) {
	t.mu.Lock()
	t.add(key, w)
	t.mu.Unlock()
}

// AddRecords credits a batch of flow records under one lock acquisition.
func (t *Tracker) AddRecords(recs []flow.Record) {
	t.mu.Lock()
	for _, r := range recs {
		t.add(r.Key, r.Count)
	}
	t.mu.Unlock()
}

// digest is the tracker's canonical key hash.
func digest(key flow.Key) uint64 {
	w1, w2 := key.Words()
	return hashing.KeyHash(tableSeed, w1, w2)
}

// add credits w packets to key. Callers hold mu.
func (t *Tracker) add(key flow.Key, w uint32) {
	h := digest(key)
	t.packets += uint64(w)
	if slot, ok := t.lookup(key, h); ok {
		e := &t.entries[slot]
		e.count = satAdd(e.count, w)
		t.heap[e.pos].count = e.count
		t.siftDown(e.pos)
		return
	}
	if len(t.entries) < t.capacity {
		slot := int32(len(t.entries))
		t.entries = append(t.entries, entry{key: key, hash: h, count: w, pos: slot})
		t.heap = append(t.heap, heapNode{count: w, slot: slot})
		t.insertIdx(h, slot)
		t.siftUp(int32(len(t.heap) - 1))
		return
	}
	// Full: recycle the minimum entry, inheriting its count as error —
	// the Space-Saving replacement rule.
	slot := t.heap[0].slot
	e := &t.entries[slot]
	t.removeIdx(e.hash, slot)
	e.key = key
	e.hash = h
	e.err = e.count
	e.count = satAdd(e.count, w)
	t.insertIdx(h, slot)
	t.heap[0].count = e.count
	t.siftDown(0)
}

// packIdx builds an index slot value: the digest's low word as the
// fingerprint, slot+1 as the payload. The fingerprint's low bits are the
// home position, so a slot value alone is enough to re-derive where its
// probe chain starts.
func packIdx(h uint64, slot int32) uint64 {
	return uint64(uint32(h))<<32 | uint64(uint32(slot+1))
}

// lookup finds the slot tracking key, probing from its digest's home
// position. Entries are only dereferenced on fingerprint matches.
func (t *Tracker) lookup(key flow.Key, h uint64) (int32, bool) {
	mask := uint64(len(t.idx) - 1)
	fp := uint32(h)
	for i := h & mask; ; i = (i + 1) & mask {
		v := t.idx[i]
		if v == 0 {
			return 0, false
		}
		if uint32(v>>32) == fp {
			s := int32(uint32(v)) - 1
			if t.entries[s].key == key {
				return s, true
			}
		}
	}
}

// insertIdx records that slot tracks a key with digest h. The key must
// not already be indexed.
func (t *Tracker) insertIdx(h uint64, slot int32) {
	mask := uint64(len(t.idx) - 1)
	i := h & mask
	for t.idx[i] != 0 {
		i = (i + 1) & mask
	}
	t.idx[i] = packIdx(h, slot)
}

// removeIdx unindexes the key of the given slot (digest h) using
// backward-shift deletion, which keeps every surviving key's probe chain
// intact without tombstones — the index stays clean no matter how many
// evictions the Space-Saving recycle rule performs. The shift scan runs
// entirely inside the index array: each slot value carries its own home
// position in its fingerprint bits.
func (t *Tracker) removeIdx(h uint64, slot int32) {
	mask := uint64(len(t.idx) - 1)
	want := uint32(slot + 1)
	i := h & mask
	for {
		v := t.idx[i]
		if v == 0 {
			return // not indexed; nothing to do
		}
		if uint32(v) == want {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.idx[i] = 0
		for {
			j = (j + 1) & mask
			v := t.idx[j]
			if v == 0 {
				return
			}
			// The entry at j may fill the hole at i only if its home
			// position is cyclically outside (i, j] — otherwise moving it
			// would break its own probe chain.
			home := (v >> 32) & mask
			if (j-home)&mask >= (j-i)&mask {
				t.idx[i] = v
				i = j
				break
			}
		}
	}
}

// satAdd adds saturating at the uint32 ceiling, matching netwide's
// combineSum semantics.
func satAdd(a, b uint32) uint32 {
	s := a + b
	if s < a {
		s = ^uint32(0)
	}
	return s
}

// The heap is 4-ary: half the depth of a binary heap, and one node's
// children share a cache line of the compact node array, so the
// per-update sift touches fewer lines — the heap fix is the other half
// of an update's cost next to the key lookup.
const heapArity = 4

// siftDown restores the heap below position i after a count increase.
// Comparisons touch only the compact heap array.
func (t *Tracker) siftDown(i int32) {
	n := int32(len(t.heap))
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := i
		for c := first; c < last; c++ {
			if t.heap[c].count < t.heap[min].count {
				min = c
			}
		}
		if min == i {
			return
		}
		t.swap(i, min)
		i = min
	}
}

// siftUp restores the heap above position i after an insertion.
func (t *Tracker) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if t.heap[parent].count <= t.heap[i].count {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *Tracker) swap(i, j int32) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.entries[t.heap[i].slot].pos = i
	t.entries[t.heap[j].slot].pos = j
}

// Estimate returns the tracked count and inherited overestimation error
// for key. ok is false when the flow is not tracked. Space-Saving
// guarantees est-err <= true count <= est for tracked flows.
func (t *Tracker) Estimate(key flow.Key) (est, err uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.lookup(key, digest(key))
	if !ok {
		return 0, 0, false
	}
	return t.entries[slot].count, t.entries[slot].err, true
}

// AppendTopK appends the k largest tracked flows to dst (count descending,
// key order breaking ties) and returns the extended slice. It runs under
// the tracker lock, which ingest shares, so it selects rather than sorts:
// the best k seen so far sit in dst's tail as a heap with the worst on
// top, and each remaining entry costs one comparison unless it displaces
// that one. Only the k survivors are sorted. Allocation-free with a reused
// dst.
func (t *Tracker) AppendTopK(dst []flow.Record, k int) []flow.Record {
	if k <= 0 {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k > len(t.entries) {
		k = len(t.entries)
	}
	base := len(dst)
	dst = slices.Grow(dst, k)
	for i := range t.entries[:k] {
		dst = append(dst, flow.Record{Key: t.entries[i].key, Count: t.entries[i].count})
	}
	top := dst[base:]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorstDown(top, i)
	}
	for i := range t.entries[k:] {
		e := &t.entries[k+i]
		if e.count < top[0].Count {
			continue // nearly every entry: one integer comparison
		}
		if r := (flow.Record{Key: e.key, Count: e.count}); compareCountDesc(r, top[0]) < 0 {
			top[0] = r
			siftWorstDown(top, 0)
		}
	}
	sortCountDesc(top)
	return dst
}

// siftWorstDown restores, below index i, the heap order in which every
// record ranks no better than its parent (so the worst sits at the root).
func siftWorstDown(h []flow.Record, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if compareCountDesc(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// AppendSorted appends every tracked flow to dst in packed-key order — the
// netwide.View order the Into merges consume — and returns the extended
// slice. Allocation-free with a reused dst.
func (t *Tracker) AppendSorted(dst []flow.Record) []flow.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fillScratch()
	slices.SortFunc(t.scratch, compareKeyAsc)
	return append(dst, t.scratch...)
}

// fillScratch snapshots the entries into t.scratch. Callers hold mu.
func (t *Tracker) fillScratch() {
	t.scratch = slices.Grow(t.scratch[:0], len(t.entries))
	for i := range t.entries {
		t.scratch = append(t.scratch, flow.Record{Key: t.entries[i].key, Count: t.entries[i].count})
	}
}

// compareCountDesc orders records by count descending, packed key order
// breaking ties (the reporting order of netwide merges and apps.TopTalkers).
func compareCountDesc(a, b flow.Record) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	return flow.CompareKeys(a.Key, b.Key)
}

// compareKeyAsc orders records by packed key.
func compareKeyAsc(a, b flow.Record) int {
	return flow.CompareKeys(a.Key, b.Key)
}

// sortCountDesc orders records by count descending with key tiebreak.
func sortCountDesc(recs []flow.Record) {
	slices.SortFunc(recs, compareCountDesc)
}

// Reset clears the tracker for the next epoch. The capacity and the
// allocated tables are kept.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = t.entries[:0]
	t.heap = t.heap[:0]
	clear(t.idx)
	t.packets = 0
}

// MemoryBytes approximates the tracker footprint.
func (t *Tracker) MemoryBytes() int {
	return t.capacity * EntryBytes
}
