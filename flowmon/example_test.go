package flowmon_test

import (
	"fmt"

	"repro/flow"
	"repro/flowmon"
)

// Collect flow records with HashFlow at the paper's default parameters and
// query a flow's size.
func Example() {
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
		MemoryBytes: 64 << 10,
		Seed:        1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	k := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 443, Proto: 6}
	for i := 0; i < 42; i++ {
		rec.Update(flow.Packet{Key: k})
	}
	fmt.Println("records:", len(rec.Records()))
	fmt.Println("size:", rec.EstimateSize(k))
	// Output:
	// records: 1
	// size: 42
}

// Compare all four paper algorithms under one memory budget.
func Example_comparison() {
	k := flow.Key{SrcIP: 1, DstIP: 2, Proto: 6}
	for _, a := range flowmon.All() {
		rec, err := flowmon.New(a, flowmon.Config{MemoryBytes: 64 << 10, Seed: 1})
		if err != nil {
			fmt.Println(err)
			return
		}
		rec.Update(flow.Packet{Key: k})
		fmt.Printf("%s: %d\n", a, rec.EstimateSize(k))
	}
	// Output:
	// HashFlow: 1
	// HashPipe: 1
	// ElasticSketch: 1
	// FlowRadar: 1
}
