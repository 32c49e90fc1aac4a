package keysort

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/flow"
)

func compareRecs(a, b flow.Record) int { return flow.CompareKeys(a.Key, b.Key) }

// compareDstMajor is the order detect's fan-in walk needs, as a
// comparator: destination address first, packed key breaking ties.
func compareDstMajor(a, b flow.Record) int {
	if a.Key.DstIP != b.Key.DstIP {
		if a.Key.DstIP < b.Key.DstIP {
			return -1
		}
		return 1
	}
	return flow.CompareKeys(a.Key, b.Key)
}

// checkSorted verifies got against the comparison sort of in: the same
// key sequence, and per key the same multiset of counts (the comparison
// sort is not stable, so the order within a run of equal keys is free).
func checkSorted(t *testing.T, in, got []flow.Record) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortFunc(want, compareRecs)
	if len(got) != len(want) {
		t.Fatalf("%d records out, want %d", len(got), len(want))
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].Key == want[i].Key {
			j++
		}
		for k := i; k < j; k++ {
			if got[k].Key != want[i].Key {
				t.Fatalf("record %d: key %v, want %v", k, got[k].Key, want[i].Key)
			}
		}
		a := countsOf(want[i:j])
		b := countsOf(got[i:j])
		if !slices.Equal(a, b) {
			t.Fatalf("key %v: counts %v, want %v", want[i].Key, b, a)
		}
		i = j
	}
}

func countsOf(recs []flow.Record) []uint32 {
	out := make([]uint32, len(recs))
	for i, r := range recs {
		out[i] = r.Count
	}
	slices.Sort(out)
	return out
}

// runAll sorts a copy of in through every entry point and checks each.
func runAll(t *testing.T, in []flow.Record) {
	t.Helper()
	recs := slices.Clone(in)
	tmp := make([]flow.Record, len(in))
	checkSorted(t, in, Sort(recs, tmp))

	dst := make([]flow.Record, len(in))
	SortInto(dst, slices.Clone(in))
	checkSorted(t, in, dst)

	recs = slices.Clone(in)
	ByKey(recs)
	checkSorted(t, in, recs)
}

// genRecords draws n records; keys come from a pool of distinct keys so a
// small pool forces duplicates. mask clears key bits to make bytes
// uniform.
func genRecords(rng *rand.Rand, n, distinct int, mask flow.Key) []flow.Record {
	keys := make([]flow.Key, distinct)
	for i := range keys {
		keys[i] = flow.Key{
			SrcIP:   rng.Uint32() & mask.SrcIP,
			DstIP:   rng.Uint32() & mask.DstIP,
			SrcPort: uint16(rng.Uint32()) & mask.SrcPort,
			DstPort: uint16(rng.Uint32()) & mask.DstPort,
			Proto:   uint8(rng.Uint32()) & mask.Proto,
		}
	}
	out := make([]flow.Record, n)
	for i := range out {
		out[i] = flow.Record{Key: keys[rng.Intn(distinct)], Count: rng.Uint32()}
	}
	return out
}

var fullMask = flow.Key{SrcIP: ^uint32(0), DstIP: ^uint32(0), SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0)}

func TestSortMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, MinRadixLen - 1, MinRadixLen, MinRadixLen + 1, 1000, 20000}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d/unique", n), func(t *testing.T) {
			runAll(t, genRecords(rng, n, n+1, fullMask))
		})
		t.Run(fmt.Sprintf("n=%d/duplicates", n), func(t *testing.T) {
			runAll(t, genRecords(rng, n, n/8+1, fullMask))
		})
	}
}

func TestSortUniformBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Every byte uniform: every pass is skipped.
	t.Run("all-uniform", func(t *testing.T) {
		runAll(t, genRecords(rng, 3000, 1, fullMask))
	})
	// Exactly one varying byte, at each of the 13 key positions.
	for p := 0; p < keyBytes; p++ {
		t.Run(fmt.Sprintf("byte=%d", p), func(t *testing.T) {
			in := genRecords(rng, 3000, 1, fullMask)
			for i := range in {
				w1, w2 := in[i].Key.Words()
				b := uint64(rng.Intn(256))
				if p < dstFirst {
					w2 = w2&^(0xff<<(8*p)) | b<<(8*p)
				} else {
					w1 = w1&^(0xff<<(8*(p-dstFirst))) | b<<(8*(p-dstFirst))
				}
				in[i].Key = keyFromWords(w1, w2)
			}
			runAll(t, in)
		})
	}
	// Shared protocol and ports, the shape of real epochs.
	t.Run("ports-uniform", func(t *testing.T) {
		runAll(t, genRecords(rng, 5000, 4000, flow.Key{SrcIP: ^uint32(0), DstIP: 0xff}))
	})
}

func keyFromWords(w1, w2 uint64) flow.Key {
	return flow.Key{
		SrcIP: uint32(w1 >> 32), DstIP: uint32(w1),
		SrcPort: uint16(w2 >> 24), DstPort: uint16(w2 >> 8), Proto: uint8(w2),
	}
}

// TestSortStable pins the radix path's stability: equal keys keep their
// input order, which makes the output a pure function of the input.
func TestSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := genRecords(rng, 4000, 50, fullMask)
	for i := range in {
		in[i].Count = uint32(i)
	}
	want := slices.Clone(in)
	slices.SortStableFunc(want, compareRecs)
	got := Sort(slices.Clone(in), make([]flow.Record, len(in)))
	if !slices.Equal(got, want) {
		t.Fatal("radix path is not stable")
	}
}

// TestByDstMatchesComparator checks the dst-major variant exactly against
// the (DstIP, key) comparator on key-sorted, duplicate-free input — the
// detector's canonical epoch.
func TestByDstMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	masks := map[string]flow.Key{
		"random":      fullMask,
		"few-dsts":    {SrcIP: ^uint32(0), DstIP: 0x0f, SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0)},
		"one-dst":     {SrcIP: ^uint32(0), SrcPort: ^uint16(0), DstPort: ^uint16(0), Proto: ^uint8(0)},
		"high-byte":   {SrcIP: 0xff, DstIP: 0xff000000},
		"dst-and-src": {SrcIP: 0xff, DstIP: 0xffff},
	}
	for name, mask := range masks {
		for _, n := range []int{0, 1, 5, MinRadixLen, 5000} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				in := genRecords(rng, n, n+1, mask)
				slices.SortFunc(in, compareRecs)
				in = slices.CompactFunc(in, func(a, b flow.Record) bool { return a.Key == b.Key })
				want := slices.Clone(in)
				slices.SortFunc(want, compareDstMajor)
				ByDst(in)
				if !slices.Equal(in, want) {
					t.Fatal("ByDst order differs from the (DstIP, key) comparator")
				}
			})
		}
	}
}

func FuzzKeySort(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint16(300))
	f.Add(make([]byte, 64), uint16(MinRadixLen))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		// Records are drawn from the fuzz bytes, cycling, so short inputs
		// give many duplicates and uniform bytes; n spans the cutoff.
		const stride = flow.KeyBytes + 1
		if len(data) < stride || n > 4096 {
			return
		}
		in := make([]flow.Record, n)
		for i := range in {
			off := (i * stride) % (len(data) - stride + 1)
			k, err := flow.KeyFromBytes(data[off : off+flow.KeyBytes])
			if err != nil {
				t.Fatal(err)
			}
			in[i] = flow.Record{Key: k, Count: uint32(i)}
		}
		runAll(t, in)

		sorted := slices.Clone(in)
		slices.SortFunc(sorted, compareRecs)
		sorted = slices.CompactFunc(sorted, func(a, b flow.Record) bool { return a.Key == b.Key })
		want := slices.Clone(sorted)
		slices.SortFunc(want, compareDstMajor)
		ByDst(sorted)
		if !slices.Equal(sorted, want) {
			t.Fatal("ByDst order differs from the (DstIP, key) comparator")
		}
	})
}

// benchRecords is an epoch shaped like the benchmark generator's: a
// persistent population plus churn, shuffled.
func benchRecords(n int) []flow.Record {
	rng := rand.New(rand.NewSource(6))
	out := make([]flow.Record, n)
	for i := range out {
		out[i] = flow.Record{
			Key: flow.Key{
				SrcIP: 0x0a000000 | uint32(rng.Intn(1<<16)), DstIP: 0xc0a80000 | uint32(rng.Intn(1<<12)),
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: []uint16{53, 80, 443, 8080}[rng.Intn(4)],
				Proto: []uint8{6, 17}[rng.Intn(2)],
			},
			Count: uint32(1 + rng.Intn(1000)),
		}
	}
	return out
}

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{256, 4096, 48 << 10} {
		in := benchRecords(n)
		recs := make([]flow.Record, n)
		tmp := make([]flow.Record, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(recs, in)
				Sort(recs, tmp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
		b.Run(fmt.Sprintf("comparison/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(recs, in)
				slices.SortFunc(recs, compareRecs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})

		sorted := slices.Clone(in)
		slices.SortFunc(sorted, compareRecs)
		b.Run(fmt.Sprintf("bydst/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(recs, sorted)
				ByDst(recs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
		b.Run(fmt.Sprintf("bydst-comparison/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(recs, sorted)
				slices.SortFunc(recs, compareDstMajor)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
