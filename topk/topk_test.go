package topk

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/flow"
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

// addPackets credits every packet to tk, one unit each.
func addPackets(tk *Tracker, pkts []flow.Packet) {
	for _, p := range pkts {
		tk.Add(p.Key, 1)
	}
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
	addPackets(tk, pkts)

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
	addPackets(tk, pkts)

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
			b.Add(k, 1)
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
}

// TestTrackerConcurrentQueries hammers the tracker with snapshot queries
// while several publishers add records — the live /topk serving pattern.
// Run under -race this pins the locking contract.
func TestTrackerConcurrentQueries(t *testing.T) {
	pkts, truth := genTrace(t, 1000, 4)
	tk, err := NewTracker(128)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]flow.Record, len(pkts))
	for i, p := range pkts {
		recs[i] = flow.Record{Key: p.Key, Count: 1}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []flow.Record
		for i := 0; i < 200; i++ {
			buf = tk.AppendTopK(buf[:0], 10)
			buf = tk.AppendSorted(buf[:0])
		}
	}()
	const publishers = 4
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(part []flow.Record) {
			defer wg.Done()
			for i := 0; i < len(part); i += 64 {
				tk.AddRecords(part[i:min(i+64, len(part))])
			}
		}(recs[w*len(recs)/publishers : (w+1)*len(recs)/publishers])
	}
	wg.Wait()
	<-done

	if got := tk.Packets(); got != truth.Packets() {
		t.Fatalf("tracker absorbed %d packets, want %d", got, truth.Packets())
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
	addPackets(tk, pkts)
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
	addPackets(tk, pkts)
	var buf []flow.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tk.AppendTopK(buf[:0], 10)
	}
}
