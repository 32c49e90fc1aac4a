// Package keysort is the module's one radix sort of flow records into the
// canonical packed-key order (flow.CompareKeys): an LSD distribution sort
// over the 13 significant bytes of the two key words, skipping passes
// whose byte is uniform across the input. Every epoch-sized key sort —
// the shard export, the store writer, detection, topk snapshots and the
// netwide merges — runs through it.
package keysort

import (
	"slices"
	"sync"

	"repro/flow"
)

// MinRadixLen is the input size below which the comparison sort beats
// the distribution passes' fixed cost (~1 µs: the histograms and their
// prefix sums). Comparisons through flow.CompareKeys cost ~25 ns each, so
// the crossover sits near 12 records (2 vCPU Xeon, go1.24).
const MinRadixLen = 16

// keyBytes is one radix pass per significant byte of the packed 104-bit
// key, least significant first: five bytes of the second word (protocol
// and ports), then eight of the first (destination, then source address).
const keyBytes = 13

// dstFirst is the pass of DstIP's least significant byte; DstIP occupies
// passes dstFirst..dstFirst+3.
const dstFirst = 5

// Sort orders recs by key and returns the sorted records: recs itself, or
// tmp[:len(recs)] when the last radix pass wrote there. tmp is the
// ping-pong buffer and must hold len(recs) records when len(recs) >=
// MinRadixLen; smaller inputs are sorted in place and tmp is untouched.
// Records with equal keys keep their input order on the radix path.
func Sort(recs, tmp []flow.Record) []flow.Record {
	if len(recs) < MinRadixLen {
		slices.SortFunc(recs, func(a, b flow.Record) int {
			return flow.CompareKeys(a.Key, b.Key)
		})
		return recs
	}
	return lsd(recs, tmp[:len(recs)], false)
}

// SortInto sorts src by key into dst, which must hold len(src) records,
// using src as the ping-pong buffer; src's contents are left unspecified.
// The copy into dst only happens when the last pass landed in src.
func SortInto(dst, src []flow.Record) {
	if sorted := Sort(src, dst); len(src) > 0 && &sorted[0] != &dst[0] {
		copy(dst, sorted)
	}
}

// ByKey sorts recs in place by key, with pooled scratch.
func ByKey(recs []flow.Record) {
	if len(recs) < MinRadixLen {
		Sort(recs, nil)
		return
	}
	inPlace(recs, false)
}

// ByDst stably reorders recs by destination address, with pooled
// scratch. On key-sorted input the result is ordered by (DstIP, key).
func ByDst(recs []flow.Record) {
	inPlace(recs, true)
}

// pool holds the ping-pong buffers of the in-place sorts.
var pool = sync.Pool{New: func() any { return new([]flow.Record) }}

// inPlace runs lsd against a pooled buffer and copies the result back
// when the last pass landed there.
func inPlace(recs []flow.Record, byDst bool) {
	if len(recs) < 2 {
		return
	}
	tmp := pool.Get().(*[]flow.Record)
	*tmp = slices.Grow((*tmp)[:0], len(recs))[:len(recs)]
	if out := lsd(recs, *tmp, byDst); &out[0] != &recs[0] {
		copy(recs, out)
	}
	pool.Put(tmp)
}

// lsd runs the stable distribution passes over the whole key, or over
// DstIP's four bytes alone when byDst is set, on src, ping-ponging against
// tmp (len(tmp) == len(src)), and returns the buffer the last pass wrote.
// A pass whose byte is uniform is the identity permutation and is skipped.
func lsd(src, tmp []flow.Record, byDst bool) []flow.Record {
	n := len(src)
	// One scan fills the histograms of every pass.
	var counts [keyBytes][256]uint32
	from, to := 0, keyBytes
	if byDst {
		from, to = dstFirst, dstFirst+4
		for i := range src {
			ip := src[i].Key.DstIP
			for p := 0; p < 4; p++ {
				counts[dstFirst+p][byte(ip>>(8*p))]++
			}
		}
	} else {
		for i := range src {
			w1, w2 := src[i].Key.Words()
			for p := 0; p < dstFirst; p++ {
				counts[p][byte(w2>>(8*p))]++
			}
			for p := 0; p < keyBytes-dstFirst; p++ {
				counts[dstFirst+p][byte(w1>>(8*p))]++
			}
		}
	}
	for p := from; p < to; p++ {
		c := &counts[p]
		w1, w2 := src[0].Key.Words()
		word, shift := w1, 8*uint(p-dstFirst)
		if p < dstFirst {
			word, shift = w2, 8*uint(p)
		}
		if c[byte(word>>shift)] == uint32(n) {
			continue
		}
		// Histogram → starting offsets.
		var sum uint32
		for b := range c {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		if p < dstFirst {
			for i := range src {
				_, w2 := src[i].Key.Words()
				b := byte(w2 >> shift)
				tmp[c[b]] = src[i]
				c[b]++
			}
		} else {
			for i := range src {
				w1, _ := src[i].Key.Words()
				b := byte(w1 >> shift)
				tmp[c[b]] = src[i]
				c[b]++
			}
		}
		src, tmp = tmp, src
	}
	return src
}
