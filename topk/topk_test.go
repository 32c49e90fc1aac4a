package topk

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/shard"
	"repro/trace"
)

// genTrace returns a skewed packet stream and its ground truth.
func genTrace(t testing.TB, flows int, seed uint64) ([]flow.Packet, *flow.Truth) {
	t.Helper()
	tr, err := trace.Generate(trace.CAIDA, flows, seed)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(seed)
	truth := flow.NewTruth(flows)
	truth.ObserveAll(pkts)
	return pkts, truth
}

// TestTrackerExactWhenUncontended: with capacity above the distinct flow
// count Space-Saving degenerates to exact counting, so the top-k must
// equal the sort-based ground truth exactly.
func TestTrackerExactWhenUncontended(t *testing.T) {
	pkts, truth := genTrace(t, 2000, 1)
	tk, err := NewTracker(truth.Flows() + 10)
	if err != nil {
		t.Fatal(err)
	}
	tk.UpdateBatch(pkts)

	if got, want := tk.Len(), truth.Flows(); got != want {
		t.Fatalf("tracked %d flows, want %d", got, want)
	}
	if got, want := tk.Packets(), truth.Packets(); got != want {
		t.Fatalf("tracked %d packets, want %d", got, want)
	}
	const k = 50
	got := tk.AppendTopK(nil, k)
	want := truth.TopK(k)
	if len(got) != len(want) {
		t.Fatalf("top-%d returned %d records, want %d", k, len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count {
			t.Errorf("rank %d: count %d, want %d", i, got[i].Count, want[i].Count)
		}
	}
}

// TestTrackerErrorBounds pins the Space-Saving guarantees under heavy
// eviction: every tracked estimate brackets the true count
// (est-err <= true <= est), and every flow larger than N/capacity packets
// is tracked.
func TestTrackerErrorBounds(t *testing.T) {
	pkts, truth := genTrace(t, 5000, 2)
	const capacity = 256
	tk, err := NewTracker(capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Mix the paths: batches plus a tail of single updates.
	half := len(pkts) / 2
	tk.UpdateBatch(pkts[:half])
	for _, p := range pkts[half:] {
		tk.Update(p)
	}

	n := truth.Packets()
	if got := tk.Packets(); got != n {
		t.Fatalf("tracked %d packets, want %d", got, n)
	}
	for _, r := range tk.AppendSorted(nil) {
		est, errBound, ok := tk.Estimate(r.Key)
		if !ok || est != r.Count {
			t.Fatalf("Estimate(%v) = %d,%v disagrees with snapshot count %d", r.Key, est, ok, r.Count)
		}
		true32 := truth.Count(r.Key)
		if est < true32 {
			t.Errorf("flow %v: estimate %d below true count %d", r.Key, est, true32)
		}
		if est-errBound > true32 {
			t.Errorf("flow %v: estimate %d - err %d exceeds true count %d", r.Key, est, errBound, true32)
		}
	}
	// Guarantee: any flow with true count > N/capacity must be tracked.
	threshold := uint32(n/uint64(capacity)) + 1
	for _, key := range truth.HeavyHitters(threshold) {
		if _, _, ok := tk.Estimate(key); !ok {
			t.Errorf("flow %v with count %d >= N/capacity+1 = %d not tracked",
				key, truth.Count(key), threshold)
		}
	}
}

// TestTrackerWeighted: Add(key, w) must equal w repeated unit updates.
func TestTrackerWeighted(t *testing.T) {
	a, _ := NewTracker(64)
	b, _ := NewTracker(64)
	keys := []flow.Key{
		{SrcIP: 1, Proto: 6}, {SrcIP: 2, Proto: 17}, {SrcIP: 3, DstPort: 443, Proto: 6},
	}
	weights := []uint32{100, 7, 23}
	for i, k := range keys {
		a.Add(k, weights[i])
		for j := uint32(0); j < weights[i]; j++ {
			b.Update(flow.Packet{Key: k})
		}
	}
	ga, gb := a.AppendTopK(nil, 10), b.AppendTopK(nil, 10)
	if len(ga) != len(gb) {
		t.Fatalf("weighted %d records vs unit %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Errorf("rank %d: weighted %+v vs unit %+v", i, ga[i], gb[i])
		}
	}
	// AddRecords is the batched weighted form.
	c, _ := NewTracker(64)
	c.AddRecords([]flow.Record{{Key: keys[0], Count: 100}, {Key: keys[1], Count: 7}, {Key: keys[2], Count: 23}})
	gc := c.AppendTopK(nil, 10)
	for i := range ga {
		if ga[i] != gc[i] {
			t.Errorf("rank %d: AddRecords %+v vs Add %+v", i, gc[i], ga[i])
		}
	}
}

func TestTrackerReset(t *testing.T) {
	tk, _ := NewTracker(8)
	tk.Add(flow.Key{SrcIP: 1}, 5)
	tk.Reset()
	if tk.Len() != 0 || tk.Packets() != 0 {
		t.Fatalf("after Reset: len=%d packets=%d", tk.Len(), tk.Packets())
	}
	if got := tk.AppendTopK(nil, 4); len(got) != 0 {
		t.Fatalf("after Reset top-k returned %d records", len(got))
	}
	tk.Add(flow.Key{SrcIP: 2}, 3)
	if got := tk.AppendTopK(nil, 4); len(got) != 1 || got[0].Count != 3 {
		t.Fatalf("tracker unusable after Reset: %v", got)
	}
}

func TestNewTrackerRejectsBadCapacity(t *testing.T) {
	if _, err := NewTracker(0); err == nil {
		t.Error("accepted capacity 0")
	}
	if _, err := NewSet(0, 8); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := NewSet(2, 0); err == nil {
		t.Error("accepted per-shard capacity 0")
	}
}

// TestSetAttachedMatchesTruth drives a sharded recorder with the set
// attached as its ingest sidecar and checks the merged cross-shard top-k
// against ground truth, through both the sync and async batch paths.
func TestSetAttachedMatchesTruth(t *testing.T) {
	pkts, truth := genTrace(t, 2000, 3)
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			cfg := flowmon.Config{MemoryBytes: 1 << 20, Seed: 1}
			var (
				s   *shard.Sharded
				err error
			)
			if async {
				s, err = shard.NewUniformAsync(4, 0, flowmon.AlgorithmHashFlow, cfg)
			} else {
				s, err = shard.NewUniform(4, flowmon.AlgorithmHashFlow, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			set, err := AttachSet(s, truth.Flows())
			if err != nil {
				t.Fatal(err)
			}

			const batch = 256
			for i := 0; i < len(pkts); i += batch {
				end := min(i+batch, len(pkts))
				s.UpdateBatch(pkts[i:end])
			}
			s.Flush()

			if got, want := set.Packets(), truth.Packets(); got != want {
				t.Fatalf("set absorbed %d packets, want %d", got, want)
			}
			const k = 20
			got := set.AppendTopK(nil, k)
			want := truth.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("top-%d returned %d records, want %d", k, len(got), len(want))
			}
			for i := range got {
				// Capacity covers every flow, so counts are exact and the
				// merged order must match the sort-based ground truth.
				if got[i].Count != want[i].Count {
					t.Errorf("rank %d: count %d, want %d", i, got[i].Count, want[i].Count)
				}
			}

			// The key-sorted view must be sorted and duplicate-free
			// (shard routing keeps keys disjoint).
			sorted := set.AppendSorted(nil)
			for i := 1; i < len(sorted); i++ {
				if flow.CompareKeys(sorted[i-1].Key, sorted[i].Key) >= 0 {
					t.Fatalf("AppendSorted out of order at %d", i)
				}
			}

			// Sharded.Reset must clear the attached sidecars too.
			s.Reset()
			if got := set.AppendTopK(nil, 4); len(got) != 0 {
				t.Fatalf("after recorder Reset the set still reports %d flows", len(got))
			}
		})
	}
}

// TestSetConcurrentQueries hammers the set with snapshot queries while a
// parallel feed is in flight — the live /topk serving pattern. Run under
// -race this pins the locking contract.
func TestSetConcurrentQueries(t *testing.T) {
	pkts, _ := genTrace(t, 1000, 4)
	s, err := shard.NewUniformAsync(4, 0, flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	set, err := AttachSet(s, 128)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []flow.Record
		for i := 0; i < 200; i++ {
			buf = set.AppendTopK(buf[:0], 10)
		}
	}()
	s.FeedParallel(pkts, 4)
	<-done

	if got := set.Packets(); got != uint64(len(pkts)) {
		t.Fatalf("set absorbed %d packets, want %d", got, len(pkts))
	}
}

func BenchmarkTrackerUpdateBatch(b *testing.B) {
	tr, err := trace.Generate(trace.CAIDA, 50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	pkts := tr.Packets(1)
	tk, _ := NewTracker(1024)
	b.ResetTimer()
	b.SetBytes(0)
	for i := 0; i < b.N; i++ {
		const batch = 256
		for j := 0; j < len(pkts); j += batch {
			tk.UpdateBatch(pkts[j:min(j+batch, len(pkts))])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

func BenchmarkSetAppendTopK(b *testing.B) {
	pkts, _ := genTrace(b, 20000, 1)
	set, err := NewSet(4, 1024)
	if err != nil {
		b.Fatal(err)
	}
	for i, t := range set.Trackers() {
		for j, p := range pkts {
			if j%4 == i {
				t.Update(p)
			}
		}
	}
	var buf []flow.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = set.AppendTopK(buf[:0], 10)
	}
}

// TestUpdateBatchPreAggregation: the batched path pre-aggregates by key
// before the Space-Saving update; with ample capacity the result must be
// identical to per-packet updates, across batch shapes that stress the
// aggregation table (all-duplicate, all-distinct, oversized, empty).
func TestUpdateBatchPreAggregation(t *testing.T) {
	shapes := map[string][]flow.Packet{}
	var dup, mixed, big []flow.Packet
	for i := 0; i < 300; i++ {
		dup = append(dup, flow.Packet{Key: flow.Key{SrcIP: 7, Proto: 6}})
		mixed = append(mixed, flow.Packet{Key: flow.Key{SrcIP: uint32(i % 13), Proto: 6}})
	}
	for i := 0; i < 3000; i++ { // far past the initial table sizing
		big = append(big, flow.Packet{Key: flow.Key{SrcIP: uint32(i % 500), DstPort: 443, Proto: 6}})
	}
	shapes["duplicates"] = dup
	shapes["mixed"] = mixed
	shapes["oversized"] = big
	shapes["empty"] = nil

	for name, pkts := range shapes {
		t.Run(name, func(t *testing.T) {
			batched, _ := NewTracker(1024)
			single, _ := NewTracker(1024)
			batched.UpdateBatch(pkts)
			// A second batch reuses the cleared aggregation table.
			batched.UpdateBatch(pkts)
			for _, p := range pkts {
				single.Update(p)
				single.Update(p)
			}
			if batched.Packets() != single.Packets() {
				t.Fatalf("packets %d vs %d", batched.Packets(), single.Packets())
			}
			gb, gs := batched.AppendSorted(nil), single.AppendSorted(nil)
			if len(gb) != len(gs) {
				t.Fatalf("tracked %d vs %d flows", len(gb), len(gs))
			}
			for i := range gb {
				if gb[i] != gs[i] {
					t.Errorf("record %d: %+v vs %+v", i, gb[i], gs[i])
				}
			}
		})
	}
}

// TestTrackerIndexChurn stresses the open-addressing index through heavy
// eviction: after tracking far more distinct keys than capacity, every
// tracked entry must still be reachable through Estimate, and the
// backward-shift deletions must not have stranded stale index slots
// (Reset then refill finds a clean table).
func TestTrackerIndexChurn(t *testing.T) {
	const capacity = 128
	tk, _ := NewTracker(capacity)
	key := func(i int) flow.Key {
		return flow.Key{SrcIP: uint32(i * 2654435761), DstPort: uint16(i), Proto: 6}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 50*capacity; i++ {
			tk.Add(key(i), uint32(1+i%7))
		}
		if tk.Len() != capacity {
			t.Fatalf("round %d: tracked %d flows, want %d", round, tk.Len(), capacity)
		}
		snap := tk.AppendSorted(nil)
		if len(snap) != capacity {
			t.Fatalf("round %d: snapshot %d flows", round, len(snap))
		}
		for _, r := range snap {
			est, _, ok := tk.Estimate(r.Key)
			if !ok || est != r.Count {
				t.Fatalf("round %d: tracked key %v unreachable via index (ok=%v est=%d count=%d)",
					round, r.Key, ok, est, r.Count)
			}
		}
		tk.Reset()
		if tk.Len() != 0 {
			t.Fatalf("round %d: Reset left %d entries", round, tk.Len())
		}
		if _, _, ok := tk.Estimate(snap[0].Key); ok {
			t.Fatalf("round %d: Reset left the index populated", round)
		}
	}
}

// TestAppendTopKMatchesFullSort: the bounded selection must return exactly
// the prefix a full sort of every tracked entry would, count descending
// with the packed key breaking ties, for any k, and leave dst's existing
// contents alone. The CAIDA tail is full of equal counts, so ties at the
// cut are exercised.
func TestAppendTopKMatchesFullSort(t *testing.T) {
	pkts, _ := genTrace(t, 5000, 3)
	tk, err := NewTracker(1500)
	if err != nil {
		t.Fatal(err)
	}
	tk.UpdateBatch(pkts)
	all := tk.AppendSorted(nil)
	sortCountDesc(all)

	rng := rand.New(rand.NewPCG(11, 13))
	ks := []int{1, 2, 10, len(all) - 1, len(all), len(all) + 7}
	for i := 0; i < 50; i++ {
		ks = append(ks, 1+rng.IntN(len(all)))
	}
	prefix := []flow.Record{{Count: 42}}
	for _, k := range ks {
		got := tk.AppendTopK(slices.Clone(prefix), k)
		if !slices.Equal(got[:1], prefix) {
			t.Fatalf("k=%d: existing dst contents overwritten", k)
		}
		if want := all[:min(k, len(all))]; !slices.Equal(got[1:], want) {
			t.Fatalf("k=%d: selection differs from the full sort's first %d", k, len(want))
		}
	}
}

// BenchmarkTrackerAppendTopK is the /v1/topk snapshot: k=10 out of a full
// tracker, under the lock ingest shares.
func BenchmarkTrackerAppendTopK(b *testing.B) {
	pkts, _ := genTrace(b, 50000, 1)
	tk, err := NewTracker(16384)
	if err != nil {
		b.Fatal(err)
	}
	tk.UpdateBatch(pkts)
	var buf []flow.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tk.AppendTopK(buf[:0], 10)
	}
}
