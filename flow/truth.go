package flow

import "sort"

// Truth accumulates exact per-flow packet counts and serves as the ground
// truth against which approximate recorders are scored.
type Truth struct {
	counts map[Key]uint32
	pkts   uint64
}

// NewTruth returns an empty ground-truth accumulator. The hint is the
// expected number of distinct flows (0 is fine).
func NewTruth(hint int) *Truth {
	return &Truth{counts: make(map[Key]uint32, hint)}
}

// Observe counts one packet.
func (t *Truth) Observe(p Packet) {
	t.counts[p.Key]++
	t.pkts++
}

// ObserveAll counts every packet in pkts.
func (t *Truth) ObserveAll(pkts []Packet) {
	for _, p := range pkts {
		t.Observe(p)
	}
}

// Flows returns the number of distinct flows observed.
func (t *Truth) Flows() int { return len(t.counts) }

// Packets returns the total number of packets observed.
func (t *Truth) Packets() uint64 { return t.pkts }

// Count returns the exact packet count of a flow (0 if never seen).
func (t *Truth) Count(k Key) uint32 { return t.counts[k] }

// Contains reports whether the flow was observed at least once.
func (t *Truth) Contains(k Key) bool {
	_, ok := t.counts[k]
	return ok
}

// Records returns all exact flow records in unspecified order.
func (t *Truth) Records() []Record {
	out := make([]Record, 0, len(t.counts))
	for k, c := range t.counts {
		out = append(out, Record{Key: k, Count: c})
	}
	return out
}

// HeavyHitters returns the keys of all flows with at least threshold packets.
func (t *Truth) HeavyHitters(threshold uint32) []Key {
	var out []Key
	for k, c := range t.counts {
		if c >= threshold {
			out = append(out, k)
		}
	}
	return out
}

// TopK returns the k largest flows in descending count order. Ties are
// broken deterministically by key encoding so results are reproducible.
func (t *Truth) TopK(k int) []Record {
	recs := t.Records()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Count != recs[j].Count {
			return recs[i].Count > recs[j].Count
		}
		return lessKey(recs[i].Key, recs[j].Key)
	})
	if k < len(recs) {
		recs = recs[:k]
	}
	return recs
}

func lessKey(a, b Key) bool {
	switch {
	case a.SrcIP != b.SrcIP:
		return a.SrcIP < b.SrcIP
	case a.DstIP != b.DstIP:
		return a.DstIP < b.DstIP
	case a.SrcPort != b.SrcPort:
		return a.SrcPort < b.SrcPort
	case a.DstPort != b.DstPort:
		return a.DstPort < b.DstPort
	default:
		return a.Proto < b.Proto
	}
}
