package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children count once; one sticks out past the parent.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 30 - 10, // [10,40) and [90,100) are covered
		2: 20 - 6,
		3: 20,
		4: 30,
		5: 6,
		6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 5}, {5, 6}}, 4},
		{0, 10, [][2]int64{{-5, 2}, {8, 20}}, 4},
		{0, 10, [][2]int64{{0, 10}, {1, 2}}, 10},
		{5, 10, [][2]int64{{0, 3}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d,%d,%v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.reserve("x", 1, time.Now())
	tr.add("y", 1, id, time.Now(), time.Now())
	tr.finish(id, time.Now())
	if id != 0 || tr.durations("x") != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestTracerParentAndSummary(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.reserve("txn", 1, t0)
	tr.add("step", 1, root, t0.Add(10), t0.Add(40))
	tr.finish(root, t0.Add(100))
	sum := summarize(tr.spans)
	if len(sum) != 2 || sum[0].Name != "step" || sum[1].Name != "txn" {
		t.Fatalf("summary %+v", sum)
	}
	if got := sum[1].SelfMedMS * 1e6; got != 70 {
		t.Errorf("txn self time %vns, want 70", got)
	}
	if got := tr.durations("txn"); len(got) != 1 || got[0] != 100 {
		t.Errorf("txn durations %v", got)
	}
}
