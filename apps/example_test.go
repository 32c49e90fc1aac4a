package apps_test

import (
	"fmt"

	"repro/apps"
	"repro/flow"
)

func ExampleDDoSVictims() {
	var records []flow.Record
	for src := uint32(1); src <= 200; src++ {
		records = append(records, flow.Record{
			Key:   flow.Key{SrcIP: src, DstIP: 0xC0A80001, DstPort: 80, Proto: 6},
			Count: 2,
		})
	}
	victims := apps.DDoSVictims(records, 100)
	fmt.Println(len(victims), victims[0].Sources)
	// Output: 1 200
}

func ExampleTopTalkers() {
	records := []flow.Record{
		{Key: flow.Key{SrcIP: 1}, Count: 10},
		{Key: flow.Key{SrcIP: 2}, Count: 99},
		{Key: flow.Key{SrcIP: 3}, Count: 5},
	}
	top := apps.TopTalkers(records, 2)
	fmt.Println(top[0].Count, top[1].Count)
	// Output: 99 10
}
