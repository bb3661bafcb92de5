package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// This file tests the stable counting-sort index (BuildSortedIndexInto)
// that the incremental Fenwick tier lays its trees out in. The tests
// named TestSorted* and TestTiled* keep the names of the retired
// one-shot sort-scan engine and its cache-tiled kernels. The index
// checks take over what those engines promised about the sorted order
// (stability, Definition 1's combine order, parity with Serial), and
// the one-shot engine's cancellation, panic and validation checks now
// run on Serial, which was its reference.

// buildIndex returns the counting-sort index of labels in fresh
// storage.
func buildIndex(labels []int, m int) (perm, start []int32) {
	perm = make([]int32, len(labels))
	start = make([]int32, m+1)
	BuildSortedIndexInto(perm, start, labels)
	return perm, start
}

// checkSortedIndex checks the index of labels three ways: every run of
// perm is strictly increasing (stability), start is monotone with
// start[m] == n and each run holds only its label, and prefix
// differences of a Fenwick tree over values in index order equal
// Serial's int64 multiprefix and reductions.
func checkSortedIndex(t testing.TB, values []int64, labels []int, m int) {
	t.Helper()
	n := len(labels)
	perm, start := buildIndex(labels, m)
	if start[0] != 0 || int(start[m]) != n {
		t.Fatalf("n=%d m=%d: start bounds [%d, %d], want [0, n]", n, m, start[0], start[m])
	}
	for l := 0; l < m; l++ {
		if start[l] > start[l+1] {
			t.Fatalf("start[%d] = %d > start[%d] = %d", l, start[l], l+1, start[l+1])
		}
		for k := start[l]; k < start[l+1]; k++ {
			if labels[perm[k]] != l {
				t.Fatalf("run %d holds element %d of label %d", l, perm[k], labels[perm[k]])
			}
			if k > start[l] && perm[k-1] >= perm[k] {
				t.Fatalf("run %d: perm[%d] = %d, perm[%d] = %d (stability violated)", l, k-1, perm[k-1], k, perm[k])
			}
		}
	}
	want, err := Serial(AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	tree := make([]int64, n)
	FenwickGatherBuildInt64(tree, values, perm)
	for k, i := range perm {
		l := labels[i]
		if got := FenwickPrefixInt64(tree, k) - FenwickPrefixInt64(tree, int(start[l])); got != want.Multi[i] {
			t.Fatalf("multi[%d] = %d via the index, serial %d", i, got, want.Multi[i])
		}
	}
	for l := 0; l < m; l++ {
		if got := FenwickPrefixInt64(tree, int(start[l+1])) - FenwickPrefixInt64(tree, int(start[l])); got != want.Reductions[l] {
			t.Fatalf("reduction[%d] = %d via the index, serial %d", l, got, want.Reductions[l])
		}
	}
}

// TestBuildSortedIndexStable checks the counting sort against a naive
// stable grouping: label l's run is perm[start[l]:start[l+1]], holding
// l's vector indices in increasing (= vector) order.
func TestBuildSortedIndexStable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := []struct{ n, m int }{{0, 0}, {0, 3}, {1, 1}, {9, 4}, {257, 16}, {1000, 7}, {50, 200}}
	for _, sh := range shapes {
		labels := make([]int, sh.n)
		for i := range labels {
			labels[i] = rng.Intn(max(sh.m, 1))
		}
		perm, start := buildIndex(labels, sh.m)
		want := make([][]int32, sh.m)
		for i, l := range labels {
			want[l] = append(want[l], int32(i))
		}
		for l := 0; l < sh.m; l++ {
			run := perm[start[l]:start[l+1]]
			if len(run) != len(want[l]) {
				t.Fatalf("label %d: run length %d, want %d", l, len(run), len(want[l]))
			}
			for k, p := range run {
				if p != want[l][k] {
					t.Fatalf("label %d: run[%d] = %d, want %d (stability violated)", l, k, p, want[l][k])
				}
			}
		}
	}
}

// TestSortedMatchesSerial runs checkSortedIndex over the shared case
// generator: every shape's index is stable and its Fenwick prefix
// differences reproduce Serial.
func TestSortedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, tc := range genCases(rng) {
		checkSortedIndex(t, tc.values, tc.labels, tc.m)
	}
}

// TestSortedCombineOrder uses a non-commutative operator (string
// concatenation) to prove the index preserves Definition 1's combine
// order exactly, not merely the same multiset of operands: combining
// along each run reproduces Serial's prefixes and reductions.
func TestSortedCombineOrder(t *testing.T) {
	values := []string{"a", "b", "c", "d", "e", "f", "g"}
	labels := []int{1, 0, 1, 1, 0, 2, 1}
	const m = 3
	want, err := Serial(ConcatString, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	perm, start := buildIndex(labels, m)
	for l := 0; l < m; l++ {
		acc := ""
		for _, i := range perm[start[l]:start[l+1]] {
			if acc != want.Multi[i] {
				t.Fatalf("Multi[%d] = %q along the run, serial %q", i, acc, want.Multi[i])
			}
			acc += values[i]
		}
		if acc != want.Reductions[l] {
			t.Fatalf("Reductions[%d] = %q along the run, serial %q", l, acc, want.Reductions[l])
		}
	}
}

// TestBuildTileSegsInvariants rebuilds indexes into the same perm and
// start storage for label vectors of different shapes: the Into form
// must not depend on what the buffers held before, which is how a
// plan's index storage would be reused.
func TestBuildTileSegsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const n, m = 300, 9
	perm := make([]int32, n)
	start := make([]int32, m+1)
	for round := 0; round < 4; round++ {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(1 + round*2)
		}
		BuildSortedIndexInto(perm, start, labels)
		wantPerm, wantStart := buildIndex(labels, m)
		for k := range perm {
			if perm[k] != wantPerm[k] {
				t.Fatalf("round %d: perm[%d] = %d on reused storage, %d fresh", round, k, perm[k], wantPerm[k])
			}
		}
		for l := range start {
			if start[l] != wantStart[l] {
				t.Fatalf("round %d: start[%d] = %d on reused storage, %d fresh", round, l, start[l], wantStart[l])
			}
		}
	}
}

// TestTiledScanLabelsParity drives a Fenwick tree over the index
// through random point updates, the incremental tier's maintenance
// path: after each update every per-label prefix and reduction read
// through the index equals Serial over the updated values.
func TestTiledScanLabelsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const n, m = 500, 12
	values, labels := randInput(rng, n, m)
	perm, start := buildIndex(labels, m)
	pos := make([]int, n)
	for k, i := range perm {
		pos[i] = k
	}
	tree := make([]int64, n)
	FenwickGatherBuildInt64(tree, values, perm)
	for round := 0; round < 40; round++ {
		i := rng.Intn(n)
		v := int64(rng.Intn(2001) - 1000)
		FenwickAddInt64(tree, pos[i], v-values[i])
		values[i] = v
		want := mustSerial(t, values, labels, m)
		for j := range values {
			l := labels[j]
			if got := FenwickPrefixInt64(tree, pos[j]) - FenwickPrefixInt64(tree, int(start[l])); got != want.Multi[j] {
				t.Fatalf("round %d: multi[%d] = %d, serial %d", round, j, got, want.Multi[j])
			}
		}
		for l := 0; l < m; l++ {
			if got := FenwickPrefixInt64(tree, int(start[l+1])) - FenwickPrefixInt64(tree, int(start[l])); got != want.Reductions[l] {
				t.Fatalf("round %d: reduction[%d] = %d, serial %d", round, l, got, want.Reductions[l])
			}
		}
	}
}

// TestTiledScanLabelsFloat64 covers the float64 Fenwick tree over the
// index inside the exact envelope (integer-valued floats, |v| within
// FenwickFloat64Bound): per-label prefixes and reductions read through
// the index are bit-identical to Serial's AddFloat64.
func TestTiledScanLabelsFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	const n, m = 700, 17
	bound := int(FenwickFloat64Bound(n))
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = float64(rng.Intn(2*bound+1) - bound)
		labels[i] = rng.Intn(m)
	}
	want, err := Serial(AddFloat64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	perm, start := buildIndex(labels, m)
	tree := make([]float64, n)
	FenwickGatherBuildFloat64(tree, values, perm)
	for k, i := range perm {
		l := labels[i]
		if got := FenwickPrefixFloat64(tree, k) - FenwickPrefixFloat64(tree, int(start[l])); got != want.Multi[i] {
			t.Fatalf("multi[%d] = %v via the index, serial %v", i, got, want.Multi[i])
		}
	}
	for l := 0; l < m; l++ {
		if got := FenwickPrefixFloat64(tree, int(start[l+1])) - FenwickPrefixFloat64(tree, int(start[l])); got != want.Reductions[l] {
			t.Fatalf("reduction[%d] = %v via the index, serial %v", l, got, want.Reductions[l])
		}
	}
}

// TestTiledKernelZeroAllocs pins BuildSortedIndexInto's
// allocation-free contract on caller storage.
func TestTiledKernelZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const n, m = 1 << 12, 64
	_, labels := randInput(rng, n, m)
	perm := make([]int32, n)
	start := make([]int32, m+1)
	if allocs := testing.AllocsPerRun(20, func() { BuildSortedIndexInto(perm, start, labels) }); allocs != 0 {
		t.Fatalf("BuildSortedIndexInto allocated %.1f/op, want 0", allocs)
	}
}

// FuzzSortedIndex checks the counting-sort index on fuzz-chosen
// shapes: stable runs, monotone start with start[m] == n, and Fenwick
// prefix differences equal to Serial's multiprefix and reductions.
func FuzzSortedIndex(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16))
	f.Add(int64(3), uint16(1), uint8(1))
	f.Add(int64(5), uint16(0), uint8(7))
	f.Add(int64(7), uint16(1600), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 4096
		m := int(mRaw) + 1
		values := make([]int64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = rng.Int63() - rng.Int63() // overflow wraps like serial
			labels[i] = rng.Intn(m)
		}
		checkSortedIndex(t, values, labels, m)
	})
}

// TestSortedCancellation: Serial under a context reports a
// pre-cancelled context before any work, in both the full and the
// reduce-only form, and a cancellation between stride segments stops
// the pass.
func TestSortedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	values, labels := randInput(rng, 3000, 11)
	b := NewWorkspace[int64]().Acquire()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.serialCtxIn(AddInt64, values, labels, 11, Config{Ctx: ctx}, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("serialCtxIn pre-cancelled: %v", err)
	}
	if _, err := b.serialCtxIn(AddInt64, values, labels, 11, Config{Ctx: ctx}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("serialCtxIn reduce-only pre-cancelled: %v", err)
	}

	// Mid-pass: an operator that cancels on its first combine; the big
	// n guarantees a later segment boundary polls the context.
	big, bigLabels := randInput(rng, 3*CancelStride, 4)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cancelling := Op[int64]{
		Name:     "+int64 (cancels)",
		Identity: 0,
		Combine:  func(a, b int64) int64 { cancel(); return a + b },
	}
	if _, err := b.serialCtxIn(cancelling, big, bigLabels, 4, Config{Ctx: ctx}, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("serialCtxIn cancelled mid-pass: %v", err)
	}
}

// TestSortedPanicRecovery: a panicking combine in Serial surfaces as
// the typed engine-panic error, not a crash.
func TestSortedPanicRecovery(t *testing.T) {
	boom := Op[int64]{
		Name:     "boom",
		Identity: 0,
		Combine:  func(a, b int64) int64 { panic("kaboom") },
	}
	_, err := Serial(boom, []int64{1, 2}, []int{0, 0}, 1)
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *EnginePanicError: %v", err, err)
	}
	if pe.Engine != "serial" {
		t.Fatalf("Engine = %q", pe.Engine)
	}
}

// TestSortedRejectsBadInput pins Serial's validation: out-of-range
// labels, a negative label space and a length mismatch are ErrBadInput.
func TestSortedRejectsBadInput(t *testing.T) {
	if _, err := Serial(AddInt64, []int64{1}, []int{5}, 2); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-range label: %v", err)
	}
	if _, err := SerialReduce(AddInt64, []int64{1}, []int{0}, -1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative m: %v", err)
	}
	if _, err := Serial(AddInt64, []int64{1, 2}, []int{0}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch: %v", err)
	}
}
