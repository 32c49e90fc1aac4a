// Package shard provides a concurrency layer over any flowmon.Recorder:
// packets are partitioned across N independent recorder shards by a hash of
// the flow key, each shard guarded by its own mutex. Because a flow always
// lands in the same shard, every per-flow property of the underlying
// algorithm is preserved, while multiple cores can feed packets in
// parallel — the software analogue of a multi-pipeline switch ASIC.
//
// The ingestion hot path is batched: UpdateBatch routes a whole batch into
// per-shard staging buffers and drains each shard's sub-batch under a
// single lock acquisition, so the mutex is taken once per shard per batch
// instead of once per packet.
//
// The extraction path mirrors the ingestion design: AppendRecords drains
// all shards in parallel into per-shard chunk buffers that are reused
// across epochs and concatenates them into the caller's buffer in
// deterministic shard-then-key order, so continuous epoch export neither
// stalls ingestion longer than one shard's drain nor allocates at steady
// state.
package shard

import (
	"fmt"
	"slices"
	"sync"

	"repro/flow"
	"repro/flowmon"
	"repro/internal/hashing"
	"repro/telemetry"
)

// shardSeed salts the routing hash so it is independent of the hash
// families used inside the recorders.
const shardSeed = 0x5ead

// Sharded fans packets out over per-shard recorders. It implements
// flowmon.Recorder itself.
type Sharded struct {
	shards []shardSlot

	// Ingestion instruments, nil unless SetMetrics attached them before
	// ingestion; both are nil-safe.
	mBatches      *telemetry.Counter
	mBatchPackets *telemetry.Histogram

	// staging pools per-call routing buffers so concurrent feeders do not
	// contend on one scratch area and steady-state ingestion is
	// allocation-free.
	staging sync.Pool

	// export is the epoch-extraction side: persistent worker goroutines
	// drain the shards in parallel into per-shard chunk buffers that are
	// reused across epochs, so steady-state AppendRecords is allocation-free.
	export exportState
}

// exportState holds the reusable export machinery. The workers are spawned
// lazily on the first multi-shard extraction and torn down by Close; after
// teardown extraction falls back to a sequential in-place drain.
type exportState struct {
	mu      sync.Mutex // serializes extractions and guards the fields below
	bufs    [][]flow.Record
	req     chan int
	done    chan struct{}
	started bool
	stopped bool
	wg      sync.WaitGroup
}

type shardSlot struct {
	mu  sync.Mutex
	rec flowmon.Recorder
	_   [40]byte // pad to keep hot locks on separate cache lines
}

// stagingBufs is the per-call routing scratch: one packet buffer per shard.
type stagingBufs struct {
	bufs [][]flow.Packet
}

var _ flowmon.Recorder = (*Sharded)(nil)

// New builds n shards using factory to construct each shard's recorder.
// Give each shard 1/n of the total memory budget to keep comparisons fair.
func New(n int, factory func(i int) (flowmon.Recorder, error)) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	s := &Sharded{shards: make([]shardSlot, n)}
	s.staging.New = func() any {
		return &stagingBufs{bufs: make([][]flow.Packet, n)}
	}
	for i := range s.shards {
		rec, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if rec == nil {
			return nil, fmt.Errorf("shard %d: factory returned nil recorder", i)
		}
		s.shards[i].rec = rec
	}
	return s, nil
}

// NewUniform builds n shards of the same algorithm, splitting cfg's memory
// budget evenly.
func NewUniform(n int, a flowmon.Algorithm, cfg flowmon.Config) (*Sharded, error) {
	per := 0
	if n > 0 {
		per = cfg.MemoryBytes / n
	}
	return New(n, func(i int) (flowmon.Recorder, error) {
		c := cfg
		c.MemoryBytes = per
		c.Seed = cfg.Seed + uint64(i)*0x9E37
		return flowmon.New(a, c)
	})
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

func (s *Sharded) routeIdx(k flow.Key) int {
	w1, w2 := k.Words()
	return int(hashing.Reduce(hashing.KeyHash(shardSeed, w1, w2), uint64(len(s.shards))))
}

// Update processes one packet, locking only the owning shard.
func (s *Sharded) Update(p flow.Packet) {
	slot := &s.shards[s.routeIdx(p.Key)]
	slot.mu.Lock()
	slot.rec.Update(p)
	slot.mu.Unlock()
}

// UpdateBatch routes the batch into per-shard staging buffers and drains
// each shard's sub-batch under one lock acquisition. Packet order within a
// flow is preserved: a flow always routes to the same shard, and its
// packets stay in batch order inside that shard's sub-batch.
func (s *Sharded) UpdateBatch(pkts []flow.Packet) {
	if len(pkts) == 0 {
		return
	}
	s.mBatches.Inc()
	s.mBatchPackets.Observe(uint64(len(pkts)))
	if len(s.shards) == 1 {
		slot := &s.shards[0]
		slot.mu.Lock()
		slot.rec.UpdateBatch(pkts)
		slot.mu.Unlock()
		return
	}

	st := s.staging.Get().(*stagingBufs)
	for _, p := range pkts {
		i := s.routeIdx(p.Key)
		st.bufs[i] = append(st.bufs[i], p)
	}
	for i := range st.bufs {
		if len(st.bufs[i]) == 0 {
			continue
		}
		slot := &s.shards[i]
		slot.mu.Lock()
		slot.rec.UpdateBatch(st.bufs[i])
		slot.mu.Unlock()
		st.bufs[i] = st.bufs[i][:0]
	}
	s.staging.Put(st)
}

// Close stops the export workers spawned by AppendRecords. The recorder
// remains fully usable afterwards: further extractions drain the shards
// sequentially. Close is idempotent.
func (s *Sharded) Close() {
	s.export.mu.Lock()
	if s.export.started && !s.export.stopped {
		close(s.export.req)
	}
	s.export.stopped = true
	s.export.mu.Unlock()
	s.export.wg.Wait()
}

// Records merges the records of every shard. Shard routing guarantees the
// same key never appears in two shards. The result is deterministic —
// shards in index order, each shard's records sorted by packed flow key —
// and allocated pre-sized in one step.
func (s *Sharded) Records() []flow.Record {
	return s.AppendRecords(nil)
}

// AppendRecords appends every shard's records to dst and returns the
// extended slice, in the same deterministic shard-then-key order as
// Records. The shards are drained in parallel into per-shard chunk buffers
// owned by the recorder and reused across epochs, then concatenated into
// dst with a single pre-sized grow, so exporting every epoch through one
// reused dst buffer is allocation-free at steady state.
//
// The first multi-shard extraction spawns one persistent export worker
// goroutine per shard (idle between extractions); call Close when
// discarding the recorder to stop them.
func (s *Sharded) AppendRecords(dst []flow.Record) []flow.Record {
	e := &s.export
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bufs == nil {
		e.bufs = make([][]flow.Record, len(s.shards))
	}
	if len(s.shards) > 1 && !e.stopped {
		if !e.started {
			e.req = make(chan int)
			e.done = make(chan struct{}, len(s.shards))
			for w := 0; w < len(s.shards); w++ {
				e.wg.Add(1)
				go s.exportWorker()
			}
			e.started = true
		}
		for i := range s.shards {
			e.req <- i
		}
		for range s.shards {
			<-e.done
		}
	} else {
		for i := range s.shards {
			s.exportShard(i)
		}
	}
	total := 0
	for i := range e.bufs {
		total += len(e.bufs[i])
	}
	dst = slices.Grow(dst, total)
	for i := range e.bufs {
		dst = append(dst, e.bufs[i]...)
	}
	return dst
}

// exportWorker drains shard indices from the export request channel until
// Close tears the channel down.
func (s *Sharded) exportWorker() {
	defer s.export.wg.Done()
	for i := range s.export.req {
		s.exportShard(i)
		s.export.done <- struct{}{}
	}
}

// exportShard extracts one shard's records into its reused chunk buffer
// and sorts the chunk by packed flow key for deterministic output.
func (s *Sharded) exportShard(i int) {
	slot := &s.shards[i]
	slot.mu.Lock()
	s.export.bufs[i] = slot.rec.AppendRecords(s.export.bufs[i][:0])
	slot.mu.Unlock()
	sortByKey(s.export.bufs[i])
}

// sortByKey orders a shard's chunk by the canonical packed-key order
// (flow.CompareKeys). Keys are unique within a shard — routing sends a
// flow to exactly one shard and recorders report each key once — so no
// tiebreak is needed for the order to be a pure function of the record
// set.
func sortByKey(recs []flow.Record) {
	slices.SortFunc(recs, func(a, b flow.Record) int {
		return flow.CompareKeys(a.Key, b.Key)
	})
}

// EstimateSize routes the query to the owning shard.
func (s *Sharded) EstimateSize(k flow.Key) uint32 {
	slot := &s.shards[s.routeIdx(k)]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.rec.EstimateSize(k)
}

// EstimateCardinality sums the per-shard estimates; shards hold disjoint
// flow populations, so the sum is the natural combiner.
func (s *Sharded) EstimateCardinality() float64 {
	var total float64
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total += slot.rec.EstimateCardinality()
		slot.mu.Unlock()
	}
	return total
}

// MemoryBytes sums the shards' footprints.
func (s *Sharded) MemoryBytes() int {
	total := 0
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total += slot.rec.MemoryBytes()
		slot.mu.Unlock()
	}
	return total
}

// OpStats sums the shards' operation counts.
func (s *Sharded) OpStats() flow.OpStats {
	var total flow.OpStats
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total = total.Add(slot.rec.OpStats())
		slot.mu.Unlock()
	}
	return total
}

// Reset clears every shard.
func (s *Sharded) Reset() {
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		slot.rec.Reset()
		slot.mu.Unlock()
	}
}
