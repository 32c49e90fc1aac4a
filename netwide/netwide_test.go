package netwide

import (
	"testing"

	"repro/flow"
)

var (
	ka = flow.Key{SrcIP: 1}
	kb = flow.Key{SrcIP: 2}
	kc = flow.Key{SrcIP: 3}
)

func TestMergeMax(t *testing.T) {
	got := MergeMax(
		View{Name: "s1", Records: []flow.Record{{Key: ka, Count: 10}, {Key: kb, Count: 5}}},
		View{Name: "s2", Records: []flow.Record{{Key: ka, Count: 7}, {Key: kc, Count: 3}}},
	)
	want := map[flow.Key]uint32{ka: 10, kb: 5, kc: 3}
	if len(got) != len(want) {
		t.Fatalf("merged %d flows, want %d", len(got), len(want))
	}
	for _, r := range got {
		if want[r.Key] != r.Count {
			t.Errorf("flow %v = %d, want %d", r.Key, r.Count, want[r.Key])
		}
	}
	// Sorted descending by count.
	for i := 1; i < len(got); i++ {
		if got[i].Count > got[i-1].Count {
			t.Error("merge result not sorted")
		}
	}
}

func TestMergeSum(t *testing.T) {
	got := MergeSum(
		View{Name: "s1", Records: []flow.Record{{Key: ka, Count: 10}}},
		View{Name: "s2", Records: []flow.Record{{Key: ka, Count: 7}}},
	)
	if len(got) != 1 || got[0].Count != 17 {
		t.Errorf("MergeSum = %v, want one flow with 17", got)
	}
}

func TestMergeSumSaturates(t *testing.T) {
	big := ^uint32(0) - 1
	got := MergeSum(
		View{Name: "s1", Records: []flow.Record{{Key: ka, Count: big}}},
		View{Name: "s2", Records: []flow.Record{{Key: ka, Count: 100}}},
	)
	if got[0].Count != ^uint32(0) {
		t.Errorf("saturating sum = %d, want max uint32", got[0].Count)
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := MergeMax(); len(got) != 0 {
		t.Errorf("MergeMax() = %v, want empty", got)
	}
	if got := MergeSum(View{Name: "s1"}); len(got) != 0 {
		t.Errorf("MergeSum(empty view) = %v, want empty", got)
	}
}
