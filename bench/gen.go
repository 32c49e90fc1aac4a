package main

import (
	"repro/flow"
)

// splitmix64 is the seed-to-stream mixer every generated input derives
// from; the program under test only ever sees the generated records.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// spikeDelta is how many packets a seeded heavy-change spike adds to one
// flow for one epoch — far past detect's default 1024-packet change
// threshold, while ordinary epoch-to-epoch jitter (maxJitter) stays far
// below it, so exactly the spikes must alert as heavy changes.
const (
	spikeDelta = 8000
	maxJitter  = 200
)

// spikeEpochs are the epochs carrying a spike. They sit early so that even
// the shortest run reaches all three.
var spikeEpochs = [3]int{4, 8, 12}

// recGen generates the collector-side workloads' epochs: a persistent
// keyset with Zipf-distributed counts that jitter a little from epoch to
// epoch (the shape cold compaction exploits), a slice of churn keys that
// exist for one epoch only, and three one-epoch spikes for detect.
type recGen struct {
	seed       uint64
	persistent []flow.Key
	base       []uint32
	churn      int
	srcPool    uint32
}

// persistentSrcBase / churnSrcBase keep the two key populations in
// disjoint source ranges, so a churn key can never collide with a
// persistent one and src= filters select a known number of persistent
// records.
const (
	persistentSrcBase = 0x0A000000 // 10.0.0.0
	churnSrcBase      = 0x0B000000 // 11.0.0.0
)

// flowsPerSrc is how many persistent keys share one source address: a
// src= filter over W epochs matches about flowsPerSrc*W records, which
// must stay under the queries' limit=100 so /v1/flows scans its whole
// window instead of stopping early.
const flowsPerSrc = 3

func newRecGen(seed uint64, persistent, churn int) *recGen {
	g := &recGen{
		seed:       seed,
		persistent: make([]flow.Key, persistent),
		base:       make([]uint32, persistent),
		churn:      churn,
		srcPool:    uint32(persistent/flowsPerSrc) + 1,
	}
	seen := make(map[flow.Key]struct{}, persistent)
	for i := range g.persistent {
		for salt := uint64(0); ; salt++ {
			h := splitmix64(seed ^ splitmix64(uint64(i)<<8|salt))
			k := flow.Key{
				SrcIP:   persistentSrcBase + uint32(i)%g.srcPool,
				DstIP:   uint32(h >> 32),
				SrcPort: uint16(h >> 16),
				DstPort: uint16(h),
				Proto:   6,
			}
			if h&1 == 1 {
				k.Proto = 17
			}
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				g.persistent[i] = k
				break
			}
		}
		// Rank-size Zipf (s = 1): a few elephants, a long tail of mice.
		c := uint32(200000 / (i + 1))
		if c < 1 {
			c = 1
		}
		g.base[i] = c
	}
	return g
}

// size is the record count of every epoch.
func (g *recGen) size() int { return len(g.persistent) + g.churn }

// spikeKey returns the flow spiked at spikeEpochs[i].
func (g *recGen) spikeKey(i int) flow.Key { return g.persistent[g.spikeIdx(i)] }

func (g *recGen) spikeIdx(i int) int { return (1000 + 37*i) % len(g.persistent) }

// srcFilterIP returns the j-th persistent source address (for src= query
// filters).
func (g *recGen) srcFilterIP(j int) uint32 { return persistentSrcBase + uint32(j)%g.srcPool }

// epoch appends epoch e's records to dst: same (seed, e) → same records.
func (g *recGen) epoch(e int, dst []flow.Record) []flow.Record {
	es := splitmix64(g.seed ^ uint64(e)*0xD1B54A32D192ED03)
	for i, k := range g.persistent {
		b := g.base[i]
		j := b / 16
		if j > maxJitter {
			j = maxJitter
		}
		c := b + uint32(splitmix64(es^uint64(i))%uint64(j+1))
		dst = append(dst, flow.Record{Key: k, Count: c})
	}
	for s, se := range spikeEpochs {
		if se == e {
			dst[len(dst)-len(g.persistent)+g.spikeIdx(s)].Count += spikeDelta
		}
	}
	for j := 0; j < g.churn; j++ {
		h := splitmix64(es ^ uint64(j)<<32 ^ 0xC0FFEE)
		dst = append(dst, flow.Record{
			Key: flow.Key{
				// The ports carry j, so keys are distinct within the epoch;
				// the hashed addresses make them new in every epoch.
				SrcIP:   churnSrcBase + uint32(h>>40),
				DstIP:   uint32(h>>8) | 1,
				SrcPort: uint16(j),
				DstPort: uint16(j >> 16),
				Proto:   6,
			},
			Count: 1 + uint32(h>>60)%3,
		})
	}
	return dst
}

// digest is an order-independent fingerprint of a record set: the count of
// records, their packet total, and a wrapping sum of per-record hashes.
// Two epochs with equal digests hold the same records (up to hash
// collisions), whatever order a layer re-sorted them into.
type digest struct {
	records uint64
	packets uint64
	hash    uint64
}

func (d *digest) add(r flow.Record) {
	w1, w2 := r.Key.Words()
	d.records++
	d.packets += uint64(r.Count)
	d.hash += splitmix64(w1 ^ splitmix64(w2^uint64(r.Count)<<1))
}

func digestOf(recs []flow.Record) digest {
	var d digest
	for _, r := range recs {
		d.add(r)
	}
	return d
}
