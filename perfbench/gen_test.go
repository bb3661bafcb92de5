package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, b, c := rng(5, 1), rng(5, 1), rng(6, 1)
	la, lb, lc := genLabels(a, 1000, 7), genLabels(b, 1000, 7), genLabels(c, 1000, 7)
	if !slices.Equal(la, lb) || slices.Equal(la, lc) {
		t.Fatal("labels: same seed must repeat, another seed must differ")
	}
	va, vb := genValues(a, 1000, 9), genValues(b, 1000, 9)
	if !slices.Equal(va, vb) {
		t.Fatal("values differ for the same seed")
	}
	for _, v := range va {
		if v < -9 || v > 9 {
			t.Fatalf("value %d outside [-9, 9]", v)
		}
	}
	if slices.Equal(genLabels(rng(5, 1), 1000, 7), genLabels(rng(5, 2), 1000, 7)) {
		t.Fatal("streams of one seed must differ")
	}
}

func TestTxnStreamDeterministic(t *testing.T) {
	g1, g2, g3 := newTxnGen(9), newTxnGen(9), newTxnGen(10)
	checks, same := 0, true
	for i := range 2000 {
		t1, c1 := g1.draw()
		t2, c2 := g2.draw()
		t3, _ := g3.draw()
		if t1 != t2 || c1 != c2 {
			t.Fatalf("transaction %d differs for the same seed", i)
		}
		same = same && t1 == t3
		if t1.onMax != (i%updMaxEvery == updMaxEvery-1) {
			t.Fatalf("transaction %d: onMax=%v, want every %dth on the max plan", i, t1.onMax, updMaxEvery)
		}
		if c1 {
			checks++
		}
	}
	if same {
		t.Fatal("another seed gave the same transactions")
	}
	if checks < 2000/192 || checks > 2000/64+1 {
		t.Fatalf("%d checks in 2000 transactions, want one every 64..191", checks)
	}
}

func TestWorkloadInputsDeterministic(t *testing.T) {
	s1, s2 := &svcWorkload{}, &svcWorkload{}
	if err := s1.gen(4, false); err != nil {
		t.Fatal(err)
	}
	if err := s2.gen(4, false); err != nil {
		t.Fatal(err)
	}
	for i := range s1.bodies {
		if !bytes.Equal(s1.bodies[i], s2.bodies[i]) {
			t.Fatalf("svc_json body %d differs for the same seed", i)
		}
	}
	k1, k2, k3 := genNASKeys(4), genNASKeys(4), genNASKeys(5)
	if !slices.Equal(k1[0], k2[0]) || !slices.Equal(k1[1], k2[1]) || slices.Equal(k1[0], k3[0]) || slices.Equal(k1[0], k1[1]) {
		t.Fatal("NAS keys: same seed must repeat; other seeds and sets must differ")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
}
