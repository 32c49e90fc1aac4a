// Package flowmon is the public facade of the flow-record collection
// library. It exposes the four measurement algorithms evaluated in the
// HashFlow paper — HashFlow itself plus the HashPipe, ElasticSketch and
// FlowRadar baselines — and three extra comparators behind a single
// Recorder interface, configured with an equal memory budget exactly as in
// the paper's evaluation. New builds any of them; NewHashFlow returns
// HashFlow's concrete type for its table accessors.
//
// Typical use:
//
//	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 1 << 20})
//	if err != nil { ... }
//	for _, p := range packets {
//		rec.Update(p)
//	}
//	records := rec.Records()
package flowmon

import (
	"fmt"

	"repro/flow"
	"repro/internal/core"
	"repro/internal/cuckoo"
	"repro/internal/elastic"
	"repro/internal/flowradar"
	"repro/internal/hashpipe"
	"repro/internal/sampled"
	"repro/internal/spacesaving"
)

// Algorithm selects one of the implemented flow recorders.
type Algorithm int

// The four algorithms evaluated in the paper, plus two comparators the
// paper discusses but does not implement: classic sampled NetFlow (§I) and
// a bounded-kick cuckoo flow table (§II).
const (
	AlgorithmHashFlow Algorithm = iota + 1
	AlgorithmHashPipe
	AlgorithmElasticSketch
	AlgorithmFlowRadar
	AlgorithmSampledNetFlow
	AlgorithmCuckoo
	AlgorithmSpaceSaving
)

// All lists the paper's four evaluated algorithms in presentation order.
// The experiment harness iterates exactly this set.
func All() []Algorithm {
	return []Algorithm{
		AlgorithmHashFlow,
		AlgorithmHashPipe,
		AlgorithmElasticSketch,
		AlgorithmFlowRadar,
	}
}

// Extras lists the additional comparators outside the paper's evaluation.
func Extras() []Algorithm {
	return []Algorithm{AlgorithmSampledNetFlow, AlgorithmCuckoo, AlgorithmSpaceSaving}
}

// String returns the algorithm's display name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmHashFlow:
		return "HashFlow"
	case AlgorithmHashPipe:
		return "HashPipe"
	case AlgorithmElasticSketch:
		return "ElasticSketch"
	case AlgorithmFlowRadar:
		return "FlowRadar"
	case AlgorithmSampledNetFlow:
		return "SampledNetFlow"
	case AlgorithmCuckoo:
		return "Cuckoo"
	case AlgorithmSpaceSaving:
		return "SpaceSaving"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a case-sensitive algorithm display name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range append(All(), Extras()...) {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("flowmon: unknown algorithm %q", name)
}

// Recorder is a flow-record collector: it observes a packet stream and can
// report flow records and the derived estimates the paper's measurement
// applications need.
type Recorder interface {
	// Update processes one packet.
	Update(p flow.Packet)
	// UpdateBatch processes a batch of packets, exactly equivalent to
	// calling Update for each packet in order. Every implementation runs
	// one per-packet update body under both methods, so the equivalence
	// holds by construction; the batch only adds its operation counts to
	// OpStats once.
	UpdateBatch(pkts []flow.Packet)
	// Records reports the flow records currently held. For algorithms with
	// a summarized region (HashFlow's ancillary table, ElasticSketch's
	// light part), only records with full flow IDs are reported.
	Records() []flow.Record
	// AppendRecords appends the flow records currently held to dst and
	// returns the extended slice — exactly the record set Records reports,
	// without allocating for the result when dst has capacity. Callers
	// that export every epoch reuse one buffer across epochs
	// (rec.AppendRecords(buf[:0])). Table-walking recorders (HashFlow,
	// ElasticSketch, Cuckoo, and the sharded wrapper) are allocation-free
	// at steady state; recorders that must build scratch state per
	// extraction (HashPipe's cross-stage merge, FlowRadar's first decode
	// after an update) still allocate internally.
	AppendRecords(dst []flow.Record) []flow.Record
	// EstimateSize estimates the packet count of a flow, 0 if unknown.
	EstimateSize(k flow.Key) uint32
	// EstimateCardinality estimates the number of distinct flows seen.
	EstimateCardinality() float64
	// MemoryBytes returns the recorder's configured memory footprint.
	MemoryBytes() int
	// OpStats returns cumulative hash and memory-access counts.
	OpStats() flow.OpStats
	// Reset returns the recorder to its empty state.
	Reset()
}

// Compile-time interface checks for all implementations.
var (
	_ Recorder = (*core.HashFlow)(nil)
	_ Recorder = (*hashpipe.HashPipe)(nil)
	_ Recorder = (*elastic.Elastic)(nil)
	_ Recorder = (*flowradar.FlowRadar)(nil)
	_ Recorder = (*sampled.Recorder)(nil)
	_ Recorder = (*cuckoo.Table)(nil)
	_ Recorder = (*spacesaving.Summary)(nil)
)

// Config carries the shared and per-algorithm parameters. The zero value of
// every field except MemoryBytes selects the paper's evaluation default.
type Config struct {
	// MemoryBytes is the memory budget shared by all structures of the
	// selected algorithm (required).
	MemoryBytes int
	// Seed makes all hashing deterministic.
	Seed uint64

	// HashFlow: depth (default 3), pipelined layout (default true via
	// Multihash=false), pipeline weight α (default 0.7), digest width
	// (default 8 bits), promotion ablation switch.
	Depth            int
	Multihash        bool
	Alpha            float64
	DigestBits       int
	DisablePromotion bool

	// HashPipe: number of stages (default 4).
	Stages int

	// ElasticSketch: heavy sub-tables (default 3) and eviction threshold λ
	// (default 8).
	SubTables int
	Lambda    int

	// FlowRadar: Bloom hash count (default 4), cell hash count (default 3),
	// Bloom bits per counting cell (default 40).
	BloomHashes      int
	CellHashes       int
	BloomBitsPerCell int

	// SampledNetFlow: 1-in-N packet sampling rate (default 100).
	SampleRate int

	// Cuckoo: displacement-chain cap (default 32).
	MaxKicks int
}

// New constructs the selected recorder with the paper's defaults applied to
// unset Config fields.
func New(a Algorithm, cfg Config) (Recorder, error) {
	switch a {
	case AlgorithmHashFlow:
		return core.New(core.Config{
			MemoryBytes:      cfg.MemoryBytes,
			Depth:            cfg.Depth,
			Pipelined:        !cfg.Multihash,
			Alpha:            cfg.Alpha,
			DigestBits:       cfg.DigestBits,
			DisablePromotion: cfg.DisablePromotion,
			Seed:             cfg.Seed,
		})
	case AlgorithmHashPipe:
		return hashpipe.New(hashpipe.Config{
			MemoryBytes: cfg.MemoryBytes,
			Stages:      cfg.Stages,
			Seed:        cfg.Seed,
		})
	case AlgorithmElasticSketch:
		return elastic.New(elastic.Config{
			MemoryBytes: cfg.MemoryBytes,
			SubTables:   cfg.SubTables,
			Lambda:      cfg.Lambda,
			Seed:        cfg.Seed,
		})
	case AlgorithmFlowRadar:
		return flowradar.New(flowradar.Config{
			MemoryBytes:      cfg.MemoryBytes,
			BloomHashes:      cfg.BloomHashes,
			CellHashes:       cfg.CellHashes,
			BloomBitsPerCell: cfg.BloomBitsPerCell,
			Seed:             cfg.Seed,
		})
	case AlgorithmSampledNetFlow:
		return sampled.New(sampled.Config{
			MemoryBytes: cfg.MemoryBytes,
			Rate:        cfg.SampleRate,
			Seed:        cfg.Seed,
		})
	case AlgorithmCuckoo:
		return cuckoo.New(cuckoo.Config{
			MemoryBytes: cfg.MemoryBytes,
			MaxKicks:    cfg.MaxKicks,
			Seed:        cfg.Seed,
		})
	case AlgorithmSpaceSaving:
		return spacesaving.New(spacesaving.Config{
			MemoryBytes: cfg.MemoryBytes,
			Seed:        cfg.Seed,
		})
	default:
		return nil, fmt.Errorf("flowmon: unknown algorithm %v", a)
	}
}

// NewHashFlow constructs a HashFlow recorder and returns the concrete type,
// exposing HashFlow-specific accessors (utilization, table sizes).
func NewHashFlow(cfg Config) (*core.HashFlow, error) {
	return core.New(core.Config{
		MemoryBytes:      cfg.MemoryBytes,
		Depth:            cfg.Depth,
		Pipelined:        !cfg.Multihash,
		Alpha:            cfg.Alpha,
		DigestBits:       cfg.DigestBits,
		DisablePromotion: cfg.DisablePromotion,
		Seed:             cfg.Seed,
	})
}
