package main

import "testing"

func TestSelfTimeOverNestedSpans(t *testing.T) {
	// op [0,100] holds a [10,40] and b [50,60]; a holds c [15,20]; a
	// second, root a [200,210] adds to the first.
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100, Alloc0: 0, Alloc1: 1000},
		{Name: "a", Parent: 0, Start: 10, End: 40, Alloc0: 100, Alloc1: 400},
		{Name: "c", Parent: 1, Start: 15, End: 20, Alloc0: 150, Alloc1: 200},
		{Name: "b", Parent: 0, Start: 50, End: 60, Alloc0: 500, Alloc1: 600},
		{Name: "a", Parent: -1, Start: 200, End: 210, Alloc0: 1000, Alloc1: 1010},
	}
	got := selfTotals(spans)
	want := map[string]layerTotals{
		"op": {SelfNs: 100 - 30 - 10, SelfAlloc: 1000 - 300 - 100},
		"a":  {SelfNs: (30 - 5) + 10, SelfAlloc: (300 - 50) + 10},
		"b":  {SelfNs: 10, SelfAlloc: 100},
		"c":  {SelfNs: 5, SelfAlloc: 50},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(true)
	r.op = 7
	root := r.begin("op")
	child := r.begin("extract")
	r.end(child)
	sib := r.begin("prune")
	r.end(sib)
	r.end(root)
	if got := r.spans[child].Parent; got != root {
		t.Errorf("child parent = %d, want %d", got, root)
	}
	if got := r.spans[sib].Parent; got != root {
		t.Errorf("sibling parent = %d, want %d", got, root)
	}
	for _, s := range r.spans {
		if s.Op != 7 || s.End < s.Start || s.Alloc1 < s.Alloc0 {
			t.Errorf("bad span %+v", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("closing a span out of order did not panic")
		}
	}()
	a := r.begin("a")
	r.begin("b")
	r.end(a)
}
