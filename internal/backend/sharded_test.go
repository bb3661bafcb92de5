package backend

import (
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// TestShardedPlanParityMatrix runs the planned sharded engine across a
// shard-count × label-shape matrix against the serial reference: runs
// swallowing several shards, boundary-aligned runs, heavy skew, sparse
// label spaces with empty rims — every carry-exchange case including
// non-power-of-two shard counts (partial final exchange distances).
func TestShardedPlanParityMatrix(t *testing.T) {
	const n = 1023
	rng := rand.New(rand.NewSource(91))
	be, err := Open[int64]("sharded")
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
			for _, shards := range []int{1, 2, 3, 5, 7, 8} {
				plan, err := be.Plan(op, shape.labels, shape.m, core.Config{Shards: shards})
				if err != nil {
					t.Fatalf("%s/%s/s%d: %v", shape.name, op.Name, shards, err)
				}
				for round := 0; round < 2; round++ {
					res, err := plan.Run(values)
					if err != nil {
						t.Fatalf("%s/%s/s%d: %v", shape.name, op.Name, shards, err)
					}
					if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
						t.Fatalf("%s/%s/s%d round %d: Run differs from serial", shape.name, op.Name, shards, round)
					}
					red, err := plan.Reduce(values)
					if err != nil {
						t.Fatalf("%s/%s/s%d reduce: %v", shape.name, op.Name, shards, err)
					}
					if !equalInt64(red, want.Reductions) {
						t.Fatalf("%s/%s/s%d round %d: Reduce differs from serial", shape.name, op.Name, shards, round)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestShardedFloat64Parity checks the float64 fast kernels through the
// exchange on integer-valued inputs, where float64 addition is exact
// and the re-parenthesized exchange fold must be bit-identical to the
// serial left fold.
func TestShardedFloat64Parity(t *testing.T) {
	const n, m = 777, 13
	rng := rand.New(rand.NewSource(93))
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = float64(rng.Intn(64) - 32)
		labels[i] = rng.Intn(m)
	}
	for _, op := range []core.Op[float64]{core.AddFloat64, core.MaxFloat64, core.MinFloat64} {
		want, err := core.Serial(op, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5, 8} {
			res, err := Compute("sharded", op, values, labels, m, core.Config{Shards: shards})
			if err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			for i := range want.Multi {
				if res.Multi[i] != want.Multi[i] {
					t.Fatalf("%s/s%d: Multi[%d] = %v, want %v", op.Name, shards, i, res.Multi[i], want.Multi[i])
				}
			}
			for l := range want.Reductions {
				if res.Reductions[l] != want.Reductions[l] {
					t.Fatalf("%s/s%d: Reductions[%d] = %v, want %v", op.Name, shards, l, res.Reductions[l], want.Reductions[l])
				}
			}
		}
	}
}

// TestShardedGenericOrder drives the generic kernels with a
// non-commutative operator: the exchange combines rows left-to-right
// (earlier shards always the left operand) and the seeded rescan never
// commutes, so string concatenation must reproduce the serial order
// exactly across every shard count.
func TestShardedGenericOrder(t *testing.T) {
	const n, m = 157, 5
	rng := rand.New(rand.NewSource(95))
	values := make([]string, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(core.ConcatString, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[string]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4, 7} {
		plan, err := be.Plan(core.ConcatString, labels, m, core.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("s%d: %v", shards, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("s%d: Multi[%d] = %q, want %q", shards, i, res.Multi[i], want.Multi[i])
			}
		}
		for l := range want.Reductions {
			if res.Reductions[l] != want.Reductions[l] {
				t.Fatalf("s%d: Reductions[%d] = %q, want %q", shards, l, res.Reductions[l], want.Reductions[l])
			}
		}
		plan.Close()
	}
}

// TestShardedRounds asserts the tentpole round-efficiency property: a
// completed Run executes exactly ⌈log₂S⌉ carry-exchange rounds, a
// k-vector batch exactly k·⌈log₂S⌉, and the modeled per-round traffic
// follows (S−2^r)·m·elemBytes. A multi-worker sorted plan runs the
// same engine (S = Workers), so its geometry is visible too.
func TestShardedRounds(t *testing.T) {
	const n, m = 4096, 32
	rng := rand.New(rand.NewSource(97))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	for _, tc := range []struct {
		name           string
		shards, rounds int
	}{
		{"sharded", 1, 0}, {"sharded", 2, 1}, {"sharded", 3, 2}, {"sharded", 4, 2},
		{"sharded", 5, 3}, {"sharded", 7, 3}, {"sharded", 8, 3}, {"sorted", 2, 1},
	} {
		be, err := Open[int64](tc.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Shards: tc.shards}
		if tc.name == "sorted" {
			cfg = core.Config{Workers: tc.shards}
		}
		plan, err := be.Plan(core.AddInt64, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run(values); err != nil {
			t.Fatal(err)
		}
		st, ok := plan.ShardStats()
		if !ok {
			t.Fatalf("%s s%d: ShardStats not available", tc.name, tc.shards)
		}
		if owner, ok := plan.ShardOf(m - 1); !ok || owner < 0 || owner >= tc.shards {
			t.Fatalf("%s s%d: ShardOf(%d) = %d, %v", tc.name, tc.shards, m-1, owner, ok)
		}
		if st.Shards != tc.shards {
			t.Fatalf("s%d: Shards = %d", tc.shards, st.Shards)
		}
		if st.Rounds != tc.rounds {
			t.Fatalf("s%d: Rounds = %d, want %d", tc.shards, st.Rounds, tc.rounds)
		}
		if st.MeasuredRounds != tc.rounds {
			t.Fatalf("s%d: MeasuredRounds = %d, want %d", tc.shards, st.MeasuredRounds, tc.rounds)
		}
		for r, b := range st.BytesPerRound {
			want := (tc.shards - 1<<r) * m * 8
			if b != want {
				t.Fatalf("s%d round %d: %d bytes, want %d", tc.shards, r, b, want)
			}
		}
		if tc.shards > 1 {
			const k = 3
			dsts := make([][]int64, k)
			srcs := make([][]int64, k)
			for i := range srcs {
				dsts[i] = make([]int64, n)
				srcs[i] = values
			}
			if err := plan.RunBatch(dsts, srcs); err != nil {
				t.Fatal(err)
			}
			st, _ = plan.ShardStats()
			if st.MeasuredRounds != k*tc.rounds {
				t.Fatalf("s%d batch: MeasuredRounds = %d, want %d", tc.shards, st.MeasuredRounds, k*tc.rounds)
			}
			if ns := st.SimNs(1000, 10); ns <= 0 {
				t.Fatalf("s%d: SimNs = %v, want positive", tc.shards, ns)
			}
		}
		plan.Close()
	}
}

// TestShardedBatchParity checks the fused batch bodies — including the
// trailing per-vector barrier that isolates one vector's carry reads
// from the next vector's pass 1 — against per-vector serial runs.
func TestShardedBatchParity(t *testing.T) {
	const n, m, k = 911, 17, 4
	rng := rand.New(rand.NewSource(99))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs := make([][]int64, k)
	for v := range srcs {
		srcs[v] = make([]int64, n)
		for i := range srcs[v] {
			srcs[v][i] = int64(rng.Intn(200) - 100)
		}
	}
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64, core.XorInt64} {
		for _, shards := range []int{1, 2, 4, 6} {
			plan, err := be.Plan(op, labels, m, core.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			multi := make([][]int64, k)
			reds := make([][]int64, k)
			for v := range srcs {
				multi[v] = make([]int64, n)
				reds[v] = make([]int64, m)
			}
			if err := plan.RunBatch(multi, srcs); err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			if err := plan.ReduceBatch(reds, srcs); err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			for v := range srcs {
				want, err := core.Serial(op, srcs[v], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(multi[v], want.Multi) {
					t.Fatalf("%s/s%d: batch vector %d multi differs", op.Name, shards, v)
				}
				if !equalInt64(reds[v], want.Reductions) {
					t.Fatalf("%s/s%d: batch vector %d reductions differ", op.Name, shards, v)
				}
			}
			plan.Close()
		}
	}
}

// TestShardedPlanZeroAllocs asserts the tentpole perf property: a warm
// sharded Plan — single-shard and team — runs at zero steady-state
// heap allocations for Run and Reduce.
func TestShardedPlanZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: shards})
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
		reduce() // warm the plan storage and the worker team
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("s%d: Run %.1f allocs/run, want 0", shards, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("s%d: Reduce %.1f allocs/run, want 0", shards, allocs)
		}
		plan.Close()
	}
}

// TestShardedPlanPanicRecovery: an injected combine panic inside a
// shard's scan surfaces as the typed engine-panic error attributed to
// the sharded engine, the barrier drain keeps the team aligned, and
// the same plan succeeds once the injector is disarmed.
func TestShardedPlanPanicRecovery(t *testing.T) {
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(101))
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
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		phase string
		span  int // hook index range: elements for the scan, labels for the exchange
	}{
		{core.PhaseSortedScan, n},
		{core.PhaseShardedExchange, m},
	} {
		phase := tc.phase
		inj := fault.Seeded(13, tc.span, phase)
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: 4, FaultHook: inj})
		if err != nil {
			t.Fatal(err)
		}
		var pe *core.EnginePanicError
		if _, err := plan.Run(values); !errors.As(err, &pe) {
			t.Fatalf("%s: want EnginePanicError, got %v", phase, err)
		}
		if pe.Engine != "plan/sharded" {
			t.Fatalf("%s: Engine = %q", phase, pe.Engine)
		}
		if inj.Combines.Load() == 0 {
			t.Fatalf("%s: fault hook never fired", phase)
		}

		// Disarm the injector: the same plan (same team) must now succeed.
		inj.PanicEvent = fault.EventNone
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("%s: run after recovered panic: %v", phase, err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("%s: post-recovery run differs from serial", phase)
		}
		plan.Close()
	}
}

// TestHashRing checks the placement ring's invariants: every label
// owned by exactly one shard, lookups deterministic across ring
// rebuilds, ownership reasonably balanced, and stable under resize
// (growing the shard set moves a minority of labels).
func TestHashRing(t *testing.T) {
	const m = 4096
	r8 := newHashRing(8)
	owned := r8.ownedLabels(m)
	if len(owned) != 8 {
		t.Fatalf("owned lists = %d, want 8", len(owned))
	}
	seen := make([]bool, m)
	for s, labels := range owned {
		for _, l := range labels {
			if seen[l] {
				t.Fatalf("label %d owned twice", l)
			}
			seen[l] = true
			if got := r8.Lookup(int(l)); got != s {
				t.Fatalf("Lookup(%d) = %d, but owned by %d", l, got, s)
			}
		}
	}
	for l, ok := range seen {
		if !ok {
			t.Fatalf("label %d unowned", l)
		}
	}
	// Determinism: an independently built ring agrees.
	again := newHashRing(8)
	for l := 0; l < m; l++ {
		if again.Lookup(l) != r8.Lookup(l) {
			t.Fatalf("ring not deterministic at label %d", l)
		}
	}
	// Balance: no shard owns more than 3x its fair share.
	for s, labels := range owned {
		if len(labels) > 3*m/8 {
			t.Fatalf("shard %d owns %d of %d labels", s, len(labels), m)
		}
	}
	// Resize stability: growing 8 → 9 shards should move roughly 1/9 of
	// the labels; assert well under a full reshuffle.
	r9 := newHashRing(9)
	moved := 0
	for l := 0; l < m; l++ {
		if r9.Lookup(l) != r8.Lookup(l) {
			moved++
		}
	}
	if moved > m/2 {
		t.Fatalf("resize moved %d of %d labels", moved, m)
	}
}

// TestShardedAutoPlan: the sort-scan engines are not Auto candidates.
// In the parallel regime — even with Config.Shards set — an auto Plan
// resolves to chunked, reports no shard geometry, and matches serial.
func TestShardedAutoPlan(t *testing.T) {
	cal := &core.AutoCalibration{SerialMax: 64}
	cfg := core.Config{Workers: 4, Shards: 4, AutoCal: cal}
	if got := core.AutoPlanChoice(1<<13, 64, cfg); got != "chunked" {
		t.Fatalf("AutoPlanChoice in the parallel regime = %q, want chunked", got)
	}
	const n, m = 1 << 13, 64
	rng := rand.New(rand.NewSource(103))
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
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, ok := plan.ShardStats(); ok {
		t.Fatal("auto plan built the sort-scan engine")
	}
	res, err := plan.Run(values)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("auto plan differs from serial")
	}
}

// FuzzShardedParity cross-checks the sharded backend — one-shot and
// planned, shard counts 1–8, int64 and float64 — against the serial
// reference on fuzz-chosen shapes.
func FuzzShardedParity(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16), uint8(4))
	f.Add(int64(3), uint16(1), uint8(1), uint8(2))
	f.Add(int64(5), uint16(777), uint8(3), uint8(7))
	f.Add(int64(7), uint16(1600), uint8(40), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, sRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2048
		m := int(mRaw)%64 + 1
		shards := int(sRaw)%8 + 1
		values := make([]int64, n)
		fvalues := make([]float64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = int64(rng.Intn(64)) - 8
			fvalues[i] = float64(values[i])
			labels[i] = rng.Intn(m)
		}
		cfg := core.Config{Shards: shards}
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute("sharded", core.AddInt64, values, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("one-shot sharded differs: n=%d m=%d s=%d", n, m, shards)
		}
		fwant, err := core.Serial(core.AddFloat64, fvalues, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := Compute("sharded", core.AddFloat64, fvalues, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fwant.Multi {
			if fres.Multi[i] != fwant.Multi[i] {
				t.Fatalf("float64 sharded differs at %d: n=%d m=%d s=%d", i, n, m, shards)
			}
		}
		be, err := Open[int64]("sharded")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, cfg)
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
				t.Fatalf("planned sharded differs: n=%d m=%d s=%d round=%d", n, m, shards, round)
			}
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("planned sharded reduce differs: n=%d m=%d s=%d", n, m, shards)
			}
		}
	})
}
