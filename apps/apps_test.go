package apps

import (
	"testing"

	"repro/flow"
)

func rec(src, dst uint32, dport uint16, count uint32) flow.Record {
	return flow.Record{
		Key:   flow.Key{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: dport, Proto: 6},
		Count: count,
	}
}

func TestTopTalkers(t *testing.T) {
	records := []flow.Record{
		rec(1, 10, 80, 5),
		rec(2, 10, 80, 50),
		rec(3, 10, 80, 20),
	}
	top := TopTalkers(records, 2)
	if len(top) != 2 || top[0].Count != 50 || top[1].Count != 20 {
		t.Errorf("TopTalkers = %v", top)
	}
	// k beyond population returns all, input not mutated.
	if got := TopTalkers(records, 10); len(got) != 3 {
		t.Errorf("TopTalkers(10) = %d records", len(got))
	}
	if records[0].Count != 5 {
		t.Error("input slice was mutated")
	}
}

func TestTopTalkersDeterministicTies(t *testing.T) {
	records := []flow.Record{rec(3, 1, 1, 7), rec(1, 1, 1, 7), rec(2, 1, 1, 7)}
	top := TopTalkers(records, 3)
	if top[0].Key.SrcIP != 1 || top[1].Key.SrcIP != 2 || top[2].Key.SrcIP != 3 {
		t.Errorf("tie-break not deterministic: %v", top)
	}
}

func TestDDoSVictims(t *testing.T) {
	var records []flow.Record
	// 10 sources hit dst 99; 2 sources hit dst 5.
	for src := uint32(1); src <= 10; src++ {
		records = append(records, rec(src, 99, 80, 3))
	}
	records = append(records, rec(1, 5, 80, 1), rec(2, 5, 80, 1))

	victims := DDoSVictims(records, 5)
	if len(victims) != 1 {
		t.Fatalf("victims = %v", victims)
	}
	v := victims[0]
	if v.DstIP != 99 || v.Sources != 10 || v.Packets != 30 {
		t.Errorf("victim = %+v", v)
	}
	if got := DDoSVictims(records, 2); len(got) != 2 {
		t.Errorf("minSources=2 found %d victims, want 2", len(got))
	}
}

func TestDDoSVictimsCountsDistinctSources(t *testing.T) {
	// The same source on different ports is one source.
	records := []flow.Record{
		{Key: flow.Key{SrcIP: 1, DstIP: 9, SrcPort: 1, Proto: 6}, Count: 1},
		{Key: flow.Key{SrcIP: 1, DstIP: 9, SrcPort: 2, Proto: 6}, Count: 1},
	}
	if got := DDoSVictims(records, 2); len(got) != 0 {
		t.Errorf("duplicate source counted twice: %v", got)
	}
}

func TestPortScanners(t *testing.T) {
	var records []flow.Record
	// src 7 probes 20 ports on dst 1.
	for port := uint16(1); port <= 20; port++ {
		records = append(records, rec(7, 1, port, 1))
	}
	// src 8 talks to 2 services.
	records = append(records, rec(8, 1, 80, 100), rec(8, 2, 443, 100))

	scanners := PortScanners(records, 10)
	if len(scanners) != 1 {
		t.Fatalf("scanners = %v", scanners)
	}
	if scanners[0].SrcIP != 7 || scanners[0].Targets != 20 {
		t.Errorf("scanner = %+v", scanners[0])
	}
}

func TestPortScannersDistinctTargets(t *testing.T) {
	// Same (dst, port) repeated is one target.
	records := []flow.Record{
		{Key: flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: 6}, Count: 1},
		{Key: flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 11, DstPort: 80, Proto: 6}, Count: 1},
	}
	if got := PortScanners(records, 2); len(got) != 0 {
		t.Errorf("duplicate target counted twice: %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := TopTalkers(nil, 5); len(got) != 0 {
		t.Error("TopTalkers(nil) not empty")
	}
	if got := DDoSVictims(nil, 1); len(got) != 0 {
		t.Error("DDoSVictims(nil) not empty")
	}
	if got := PortScanners(nil, 1); len(got) != 0 {
		t.Error("PortScanners(nil) not empty")
	}
}
