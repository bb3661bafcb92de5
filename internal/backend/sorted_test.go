package backend

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// sortedShapes builds label vectors that stress run and partition
// edges: a single giant run swallowing several worker chunks or tile
// windows, runs aligned exactly on 4-way partition boundaries,
// leading/trailing empty labels, heavy skew, and a sparse label space.
func sortedShapes(rng *rand.Rand, n int) []struct {
	name   string
	labels []int
	m      int
} {
	uniform := make([]int, n)
	for i := range uniform {
		uniform[i] = rng.Intn(7)
	}
	one := make([]int, n) // one run across every partition boundary
	giant := make([]int, n)
	for i := range giant { // giant middle run, small runs at the rims
		switch {
		case i < n/8:
			giant[i] = 0
		case i >= n-n/8:
			giant[i] = 2
		default:
			giant[i] = 1
		}
	}
	aligned := make([]int, n) // run boundaries coincide with 4-way partition bounds
	for i := range aligned {
		aligned[i] = i * 4 / n
	}
	skew := make([]int, n)
	for i := range skew {
		if rng.Intn(10) < 8 {
			skew[i] = 3
		} else {
			skew[i] = rng.Intn(16)
		}
	}
	sparse := make([]int, n) // most labels empty, incl. leading/trailing
	for i := range sparse {
		sparse[i] = 50 + rng.Intn(20)
	}
	return []struct {
		name   string
		labels []int
		m      int
	}{
		{"uniform", uniform, 7},
		{"one-label", one, 1},
		{"giant-run", giant, 3},
		{"boundary-aligned", aligned, 4},
		{"skewed", skew, 16},
		{"sparse-empty-rims", sparse, 200},
	}
}

// The retired sharded engine's tests keep their names below, each
// beside its sorted sibling: a multi-worker sorted plan is what a
// sharded request has become, so each runs its old check on sorted
// plans at the shard counts that engine swept, as Workers values the
// single scan must ignore.

// TestSortedPlanCarryMatrix runs the planned sorted engine across a
// worker × label-shape matrix against the serial reference: every op,
// every shape, and worker counts the plan must ignore — a sorted plan
// is one serial scan whatever Workers says.
func TestSortedPlanCarryMatrix(t *testing.T) {
	checkSortedPlanMatrix(t, 81, []int{1, 2, 3, 4, 8})
}

// TestShardedPlanParityMatrix runs the same matrix at the retired
// sharded engine's shard counts, non-powers-of-two included.
func TestShardedPlanParityMatrix(t *testing.T) {
	checkSortedPlanMatrix(t, 91, []int{1, 2, 3, 5, 7, 8})
}

// checkSortedPlanMatrix checks sorted plans at each worker count
// against core.Serial for every int64 op on every sortedShapes shape,
// through two rounds of Run and Reduce.
func checkSortedPlanMatrix(t *testing.T, seed int64, workerCounts []int) {
	t.Helper()
	const n = 1023 // off the power-of-two partition bounds
	rng := rand.New(rand.NewSource(seed))
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range sortedShapes(rng, n) {
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(200) - 100)
		}
		for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64, core.MinInt64, core.AndInt64, core.OrInt64, core.XorInt64} {
			want, err := core.Serial(op, values, shape.labels, shape.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				plan, err := be.Plan(op, shape.labels, shape.m, core.Config{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
				}
				for round := 0; round < 2; round++ {
					res, err := plan.Run(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: Run differs from serial", shape.name, op.Name, workers, round)
					}
					red, err := plan.Reduce(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d reduce: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(red, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: Reduce differs from serial", shape.name, op.Name, workers, round)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestSortedPlanGenericOp drives the planned sorted engine through the
// generic kernels with a non-commutative operator: combine order
// through the permutation must reproduce the serial order exactly, at
// every worker count.
func TestSortedPlanGenericOp(t *testing.T) {
	concat := core.Op[string]{
		Name:     "concat",
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	checkSortedPlanOrder(t, concat, 83, []int{1, 3, 4})
}

// TestShardedGenericOrder runs the same order check with the library's
// ConcatString at the retired sharded engine's shard counts.
func TestShardedGenericOrder(t *testing.T) {
	checkSortedPlanOrder(t, core.ConcatString, 95, []int{1, 3, 4, 7})
}

// checkSortedPlanOrder checks that sorted plans at each worker count
// reproduce core.Serial exactly under the non-commutative op concat.
func checkSortedPlanOrder(t *testing.T, concat core.Op[string], seed int64, workerCounts []int) {
	t.Helper()
	const n, m = 157, 5
	rng := rand.New(rand.NewSource(seed))
	values := make([]string, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(concat, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[string]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		plan, err := be.Plan(concat, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("w%d: Multi[%d] = %q, want %q", workers, i, res.Multi[i], want.Multi[i])
			}
		}
		for l := range want.Reductions {
			if res.Reductions[l] != want.Reductions[l] {
				t.Fatalf("w%d: Reductions[%d] = %q, want %q", workers, l, res.Reductions[l], want.Reductions[l])
			}
		}
		plan.Close()
	}
}

// bitsEqual reports whether two float64 slices are bit-identical, NaN
// payloads and signed zeros included.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSortedFloat64BitIdentity pins the sorted plan's exactness
// contract: one serial scan in Definition 1's combine order, so float64
// sums far outside the 2^52/n integer envelope — where any
// re-parenthesization changes rounding — come out bit-identical to
// core.Serial at every worker count, through Run, Reduce and RunBatch.
func TestSortedFloat64BitIdentity(t *testing.T) {
	const n, m, k = 4096, 13, 3
	rng := rand.New(rand.NewSource(87))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs := make([][]float64, k)
	wants := make([]core.Result[float64], k)
	for j := range srcs {
		srcs[j] = make([]float64, n)
		for i := range srcs[j] {
			srcs[j][i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-12))
		}
		want, err := core.Serial(core.AddFloat64, srcs[j], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		wants[j] = want
	}
	be, err := Open[float64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([][]float64, k)
	for j := range dsts {
		dsts[j] = make([]float64, n)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		plan, err := be.Plan(core.AddFloat64, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(srcs[0])
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if !bitsEqual(res.Multi, wants[0].Multi) || !bitsEqual(res.Reductions, wants[0].Reductions) {
			t.Fatalf("w%d: Run not bit-identical to serial", workers)
		}
		red, err := plan.Reduce(srcs[0])
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		if !bitsEqual(red, wants[0].Reductions) {
			t.Fatalf("w%d: Reduce not bit-identical to serial", workers)
		}
		if err := plan.RunBatch(dsts, srcs); err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		for j := range dsts {
			if !bitsEqual(dsts[j], wants[j].Multi) {
				t.Fatalf("w%d: RunBatch vector %d not bit-identical to serial", workers, j)
			}
		}
		plan.Close()
	}
}

// TestSortedPlanZeroAllocs asserts the tentpole perf property for the
// sorted engine: a warm sorted Plan runs at zero steady-state heap
// allocations for Run and Reduce, whatever its worker count.
func TestSortedPlanZeroAllocs(t *testing.T) {
	checkSortedPlanZeroAllocs(t, []int{1, 4})
}

// TestShardedPlanZeroAllocs pins zero allocations at the team sizes
// the retired sharded engine ran, which the sorted plan must ignore.
func TestShardedPlanZeroAllocs(t *testing.T) {
	checkSortedPlanZeroAllocs(t, []int{2, 8})
}

// checkSortedPlanZeroAllocs asserts a warm sorted plan at each worker
// count allocates nothing per Run or Reduce.
func checkSortedPlanZeroAllocs(t *testing.T, workerCounts []int) {
	t.Helper()
	values, labels, m := planAllocInput()
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := plan.Run(values); err != nil {
				t.Fatal(err)
			}
		}
		reduce := func() {
			if _, err := plan.Reduce(values); err != nil {
				t.Fatal(err)
			}
		}
		run()
		reduce() // warm the plan storage
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("w%d: Run %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("w%d: Reduce %.1f allocs/run, want 0", workers, allocs)
		}
		plan.Close()
	}
}

// TestSortedPlanPanicRecovery: an injected combine panic inside the
// scan surfaces as the typed engine-panic error attributed to the
// sorted engine, and the plan survives for the next run.
func TestSortedPlanPanicRecovery(t *testing.T) {
	checkSortedPlanPanicRecovery(t, 85, 4)
}

// TestShardedPlanPanicRecovery runs the same recovery check at the
// retired sharded engine's largest shard count; the scan is the only
// phase left to fault, its carry exchange being gone.
func TestShardedPlanPanicRecovery(t *testing.T) {
	checkSortedPlanPanicRecovery(t, 101, 8)
}

// checkSortedPlanPanicRecovery injects a combine panic into the scan
// of a sorted plan built with the given worker count, then checks the
// typed error, its engine name, and a correct run once disarmed.
func checkSortedPlanPanicRecovery(t *testing.T, seed int64, workers int) {
	t.Helper()
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(seed))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Seeded(13, n, core.PhaseSortedScan)
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers, FaultHook: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	var pe *core.EnginePanicError
	if _, err := plan.Run(values); !errors.As(err, &pe) {
		t.Fatalf("want EnginePanicError, got %v", err)
	}
	if pe.Engine != "plan/sorted" {
		t.Fatalf("Engine = %q", pe.Engine)
	}
	if inj.Combines.Load() == 0 {
		t.Fatal("fault hook never fired")
	}

	// Disarm the injector: the same plan must now succeed.
	inj.PanicEvent = fault.EventNone
	res, err := plan.Run(values)
	if err != nil {
		t.Fatalf("run after recovered panic: %v", err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("post-recovery run differs from serial")
	}
}

// FuzzSortedParity cross-checks the sorted backend — one-shot and
// planned, across worker counts, int64 and non-integer float64 — against
// the serial reference on fuzz-chosen shapes.
func FuzzSortedParity(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16), uint8(4))
	f.Add(int64(3), uint16(1), uint8(1), uint8(2))
	f.Add(int64(5), uint16(777), uint8(3), uint8(3))
	f.Add(int64(7), uint16(1600), uint8(40), uint8(5))
	f.Fuzz(sortedParity(5))
}

// FuzzShardedParity runs the same cross-check from the retired sharded
// engine's seed corpus, over its shard counts 1–8 as worker counts.
func FuzzShardedParity(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16), uint8(4))
	f.Add(int64(3), uint16(1), uint8(1), uint8(2))
	f.Add(int64(5), uint16(777), uint8(3), uint8(7))
	f.Add(int64(7), uint16(1600), uint8(40), uint8(5))
	f.Fuzz(sortedParity(8))
}

// sortedParity returns the fuzz body shared by FuzzSortedParity and
// FuzzShardedParity; the worker count is drawn from 1..maxWorkers.
func sortedParity(maxWorkers int) func(t *testing.T, seed int64, nRaw uint16, mRaw, wRaw uint8) {
	return func(t *testing.T, seed int64, nRaw uint16, mRaw, wRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2048
		m := int(mRaw)%64 + 1
		workers := int(wRaw)%maxWorkers + 1
		values := make([]int64, n)
		fvalues := make([]float64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = int64(rng.Intn(64)) - 8
			fvalues[i] = float64(values[i]) / 3
			labels[i] = rng.Intn(m)
		}
		fwant, err := core.Serial(core.AddFloat64, fvalues, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := Compute("sorted", core.AddFloat64, fvalues, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(fres.Multi, fwant.Multi) || !bitsEqual(fres.Reductions, fwant.Reductions) {
			t.Fatalf("one-shot float64 sorted differs: n=%d m=%d", n, m)
		}
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute("sorted", core.AddInt64, values, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("one-shot sorted differs: n=%d m=%d", n, m)
		}
		be, err := Open[int64]("sorted")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer plan.Close()
		for round := 0; round < 2; round++ {
			res, err := plan.Run(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
				t.Fatalf("planned sorted differs: n=%d m=%d workers=%d round=%d", n, m, workers, round)
			}
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("planned sorted reduce differs: n=%d m=%d workers=%d", n, m, workers)
			}
		}
	}
}
