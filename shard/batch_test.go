package shard

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

func batchTrace(t *testing.T, flows int, seed uint64) []flow.Packet {
	t.Helper()
	tr, err := trace.Generate(trace.Campus, flows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Packets(seed)
}

func sortedRecords(recs []flow.Record) []flow.Record {
	sort.Slice(recs, func(i, j int) bool {
		return bytes.Compare(recs[i].Key.AppendBytes(nil), recs[j].Key.AppendBytes(nil)) < 0
	})
	return recs
}

// TestShardedBatchMatchesSequential: from a single feeder, the staged
// batch path preserves per-shard packet order, so the final state must be
// byte-identical to per-packet updates.
func TestShardedBatchMatchesSequential(t *testing.T) {
	pkts := batchTrace(t, 5000, 21)
	for _, shards := range []int{1, 4, 7} {
		seq := newSharded(t, shards)
		bat := newSharded(t, shards)

		for _, p := range pkts {
			seq.Update(p)
		}
		for i := 0; i < len(pkts); i += 333 {
			end := i + 333
			if end > len(pkts) {
				end = len(pkts)
			}
			bat.UpdateBatch(pkts[i:end])
		}

		if s, b := seq.OpStats(), bat.OpStats(); s != b {
			t.Errorf("shards=%d: OpStats diverge: %+v vs %+v", shards, s, b)
		}
		if s, b := seq.EstimateCardinality(), bat.EstimateCardinality(); s != b {
			t.Errorf("shards=%d: cardinality diverges: %v vs %v", shards, s, b)
		}
		sr, br := sortedRecords(seq.Records()), sortedRecords(bat.Records())
		if len(sr) != len(br) {
			t.Fatalf("shards=%d: record counts diverge: %d vs %d", shards, len(sr), len(br))
		}
		for i := range sr {
			if sr[i] != br[i] {
				t.Fatalf("shards=%d: record %d diverges: %+v vs %+v", shards, i, sr[i], br[i])
			}
		}
	}
}

// TestAsyncCloseSemantics: Close is idempotent, and a closed recorder
// keeps ingesting on the synchronous path.
func TestAsyncCloseSemantics(t *testing.T) {
	s, err := NewUniform(4, flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 128 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pkts := batchTrace(t, 1000, 29)

	s.UpdateBatch(pkts[:500])
	s.Close()
	s.Close() // idempotent

	s.UpdateBatch(pkts[500:])
	s.Update(pkts[0])

	if got, want := s.OpStats().Packets, uint64(len(pkts)+1); got != want {
		t.Errorf("processed %d packets, want %d", got, want)
	}
	if len(s.Records()) == 0 {
		t.Error("no records after Close")
	}
}

// TestConcurrentBatchRace is the race-detector stress test: concurrent
// batched writers against concurrent readers. Run with -race in CI.
func TestConcurrentBatchRace(t *testing.T) {
	pkts := batchTrace(t, 4000, 31)
	t.Run("sync", func(t *testing.T) {
		s, err := NewUniform(4, flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 256 << 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		var wg sync.WaitGroup
		feedParallel(s, pkts, 4, 64, &wg)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					_ = s.Records()
					_ = s.EstimateSize(pkts[i].Key)
					_ = s.EstimateCardinality()
					_ = s.OpStats()
				}
			}()
		}
		wg.Wait()

		if got := s.OpStats().Packets; got != uint64(len(pkts)) {
			t.Errorf("processed %d packets, want %d", got, len(pkts))
		}
	})
}

// feedParallel starts one goroutine per writer, each feeding its share of
// pkts through the staged path in batches of the given size; wg tracks them.
func feedParallel(s *Sharded, pkts []flow.Packet, writers, batch int, wg *sync.WaitGroup) {
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []flow.Packet) {
			defer wg.Done()
			for i := 0; i < len(part); i += batch {
				s.UpdateBatch(part[i:min(i+batch, len(part))])
			}
		}(pkts[w*len(pkts)/writers : (w+1)*len(pkts)/writers])
	}
}
