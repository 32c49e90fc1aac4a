// Package flow defines the basic vocabulary of flow record collection:
// flow keys, packets, flow records and ground-truth accumulation.
//
// A flow is identified by the classic 104-bit 5-tuple (source IP,
// destination IP, source port, destination port, protocol), matching the
// flow ID the HashFlow paper uses throughout its evaluation. All measurement
// algorithms in this repository consume flow.Packet values and emit
// flow.Record values.
package flow

import (
	"fmt"
	"net/netip"
)

// KeyBytes is the canonical encoded size of a Key: 104 bits = 13 bytes.
const KeyBytes = 13

// Key is a 104-bit flow identifier: the IPv4 5-tuple.
//
// Key is comparable and can be used directly as a map key.
type Key struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Words packs the key into two 64-bit words (104 significant bits).
// The packing is injective, so hashing the two words is equivalent to
// hashing the canonical 13-byte encoding.
func (k Key) Words() (uint64, uint64) {
	w1 := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	w2 := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return w1, w2
}

// AppendBytes appends the canonical 13-byte big-endian encoding of the key
// to dst and returns the extended slice.
func (k Key) AppendBytes(dst []byte) []byte {
	return append(dst,
		byte(k.SrcIP>>24), byte(k.SrcIP>>16), byte(k.SrcIP>>8), byte(k.SrcIP),
		byte(k.DstIP>>24), byte(k.DstIP>>16), byte(k.DstIP>>8), byte(k.DstIP),
		byte(k.SrcPort>>8), byte(k.SrcPort),
		byte(k.DstPort>>8), byte(k.DstPort),
		k.Proto,
	)
}

// KeyFromBytes decodes a key from its canonical 13-byte encoding.
// It returns an error if b is not exactly KeyBytes long.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeyBytes {
		return Key{}, fmt.Errorf("flow: key must be %d bytes, got %d", KeyBytes, len(b))
	}
	return Key{
		SrcIP:   uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]),
		DstIP:   uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		SrcPort: uint16(b[8])<<8 | uint16(b[9]),
		DstPort: uint16(b[10])<<8 | uint16(b[11]),
		Proto:   b[12],
	}, nil
}

// XOR returns the field-wise exclusive-or of two keys. FlowRadar's coded
// flow set relies on XOR being an involution: a ^ b ^ b == a.
func (k Key) XOR(o Key) Key {
	return Key{
		SrcIP:   k.SrcIP ^ o.SrcIP,
		DstIP:   k.DstIP ^ o.DstIP,
		SrcPort: k.SrcPort ^ o.SrcPort,
		DstPort: k.DstPort ^ o.DstPort,
		Proto:   k.Proto ^ o.Proto,
	}
}

// IsZero reports whether the key is the all-zero key.
func (k Key) IsZero() bool {
	return k == Key{}
}

// IPString renders a big-endian packed IPv4 address as a dotted quad,
// the encoding Key carries its addresses in.
func IPString(ip uint32) string {
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}).String()
}

// String renders the key as "src:sport -> dst:dport/proto".
func (k Key) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d/%d", IPString(k.SrcIP), k.SrcPort, IPString(k.DstIP), k.DstPort, k.Proto)
}

// Packet is one packet of a flow as seen by a measurement point.
type Packet struct {
	Key Key
	// Size is the packet length in bytes. The HashFlow evaluation counts
	// packets, not bytes, but NetFlow export and the pcap codec carry sizes.
	Size uint16
}

// Record is a flow record: the key and the number of packets attributed to it.
type Record struct {
	Key   Key
	Count uint32
}

// CompareKeys orders keys by their packed two-word encoding (Words) and
// returns -1, 0 or +1. This is the canonical key order of the export
// pipeline: shard chunks, recordstore epochs, detect's epoch view, topk
// snapshots and netwide sorted-view merges all hold it, so they
// interoperate without re-sorting. internal/keysort radix-sorts into it.
func CompareKeys(a, b Key) int {
	a1, a2 := a.Words()
	b1, b2 := b.Words()
	switch {
	case a1 != b1:
		if a1 < b1 {
			return -1
		}
		return 1
	case a2 != b2:
		if a2 < b2 {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// OpStats aggregates the per-packet operation counts that Fig. 11 of the
// paper reports: hash computations and memory (bucket/cell/bit) accesses.
type OpStats struct {
	Packets     uint64
	Hashes      uint64
	MemAccesses uint64
}

// HashesPerPacket returns the average number of hash computations per
// processed packet, or 0 if no packets were processed.
func (s OpStats) HashesPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.Hashes) / float64(s.Packets)
}

// MemAccessesPerPacket returns the average number of memory accesses per
// processed packet, or 0 if no packets were processed.
func (s OpStats) MemAccessesPerPacket() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.MemAccesses) / float64(s.Packets)
}

// Add returns the element-wise sum of two OpStats.
func (s OpStats) Add(o OpStats) OpStats {
	return OpStats{
		Packets:     s.Packets + o.Packets,
		Hashes:      s.Hashes + o.Hashes,
		MemAccesses: s.MemAccesses + o.MemAccesses,
	}
}
