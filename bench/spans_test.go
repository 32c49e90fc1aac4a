package main

import (
	"slices"
	"testing"
)

// Self time is the span minus the union of its children: overlapping
// children are not subtracted twice, and a child is only subtracted where
// it lies inside the parent.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		0: {Name: "parent", Start: 0, End: 100, Parent: noSpan},
		1: {Name: "a", Start: 10, End: 40, Parent: 0},
		2: {Name: "b overlaps a", Start: 30, End: 60, Parent: 0},
		3: {Name: "c runs past the parent", Start: 90, End: 150, Parent: 0},
		4: {Name: "d caused by parent, wholly after it", Start: 200, End: 300, Parent: 0},
		5: {Name: "grandchild", Start: 12, End: 20, Parent: 1},
		6: {Name: "e inside a and b", Start: 35, End: 38, Parent: 0},
	}
	// Children cover [10,60) ∪ [90,100) = 60 of the parent's 100.
	want := []int64{40, 22, 30, 60, 100, 8, 3}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times: got %v, want %v", got, want)
	}
}

func TestTracerNilIsANoOp(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", noSpan, 0)
	tr.end(s)
	if s != noSpan || tr.add("y", noSpan, 0, 1, 2) != noSpan || len(tr.byName(0).dur) != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestTracerDropsBeyondCapacity(t *testing.T) {
	tr := newTracer(2)
	a := tr.begin("a", noSpan, 0)
	tr.end(a)
	tr.begin("b", a, 0)
	if c := tr.begin("c", a, 0); c != noSpan || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Errorf("third span: id %d, dropped %d, recorded %d", c, tr.dropped, len(tr.spans))
	}
}
