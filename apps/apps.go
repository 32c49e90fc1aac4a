// Package apps implements the traffic-analysis applications that motivate
// flow record collection in the paper's introduction: top-talker ranking,
// DDoS victim detection and port-scan detection. Every application
// consumes plain []flow.Record, so it runs identically on exact NetFlow
// records and on the approximate records any flowmon.Recorder reports.
package apps

import (
	"sort"

	"repro/flow"
)

// TopTalkers returns the k largest flows by packet count, descending, with
// deterministic tie-breaking on the key encoding.
func TopTalkers(records []flow.Record, k int) []flow.Record {
	out := make([]flow.Record, len(records))
	copy(out, records)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return lessKey(out[i].Key, out[j].Key)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Victim is a destination receiving traffic from many distinct sources —
// the signature of a volumetric DDoS attack or a flash crowd.
type Victim struct {
	DstIP   uint32
	Sources int    // distinct source IPs
	Packets uint64 // total packets toward the destination
}

// DDoSVictims reports destinations contacted by at least minSources
// distinct source IPs, descending by source count.
func DDoSVictims(records []flow.Record, minSources int) []Victim {
	type agg struct {
		srcs map[uint32]struct{}
		pkts uint64
	}
	byDst := make(map[uint32]*agg)
	for _, r := range records {
		a := byDst[r.Key.DstIP]
		if a == nil {
			a = &agg{srcs: make(map[uint32]struct{})}
			byDst[r.Key.DstIP] = a
		}
		a.srcs[r.Key.SrcIP] = struct{}{}
		a.pkts += uint64(r.Count)
	}
	var out []Victim
	for dst, a := range byDst {
		if len(a.srcs) >= minSources {
			out = append(out, Victim{DstIP: dst, Sources: len(a.srcs), Packets: a.pkts})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sources != out[j].Sources {
			return out[i].Sources > out[j].Sources
		}
		return out[i].DstIP < out[j].DstIP
	})
	return out
}

// Scanner is a source probing many distinct (destination, port) pairs —
// the signature of horizontal or vertical scanning.
type Scanner struct {
	SrcIP   uint32
	Targets int // distinct (dstIP, dstPort) pairs
}

// PortScanners reports sources that touched at least minTargets distinct
// (destination IP, destination port) pairs, descending by target count.
func PortScanners(records []flow.Record, minTargets int) []Scanner {
	type target struct {
		ip   uint32
		port uint16
	}
	bySrc := make(map[uint32]map[target]struct{})
	for _, r := range records {
		m := bySrc[r.Key.SrcIP]
		if m == nil {
			m = make(map[target]struct{})
			bySrc[r.Key.SrcIP] = m
		}
		m[target{ip: r.Key.DstIP, port: r.Key.DstPort}] = struct{}{}
	}
	var out []Scanner
	for src, m := range bySrc {
		if len(m) >= minTargets {
			out = append(out, Scanner{SrcIP: src, Targets: len(m)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Targets != out[j].Targets {
			return out[i].Targets > out[j].Targets
		}
		return out[i].SrcIP < out[j].SrcIP
	})
	return out
}

func lessKey(a, b flow.Key) bool {
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
