package backend

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"multiprefix/internal/core"
)

// batchInput builds one fixed label vector and k value vectors plus
// preallocated destination storage for both batch forms.
func batchInput(rng *rand.Rand, n, m, k int) (labels []int, srcs, multiDsts, redDsts [][]int64) {
	labels = make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs = make([][]int64, k)
	multiDsts = make([][]int64, k)
	redDsts = make([][]int64, k)
	for j := 0; j < k; j++ {
		srcs[j] = make([]int64, n)
		for i := range srcs[j] {
			srcs[j][i] = int64(rng.Intn(200) - 100)
		}
		multiDsts[j] = make([]int64, n)
		redDsts[j] = make([]int64, m)
	}
	return labels, srcs, multiDsts, redDsts
}

// TestBatchParity is the batch half of the tentpole: RunBatch and
// ReduceBatch on every registered backend must equal k independent
// serial evaluations — exercising the fused serial, chunked-team and
// vector paths plus the generic loop.
func TestBatchParity(t *testing.T) {
	const n, m, k = 1500, 24, 3
	rng := rand.New(rand.NewSource(91))
	labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for round := 0; round < 2; round++ {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatalf("%s round %d: RunBatch: %v", name, round, err)
			}
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatalf("%s round %d: ReduceBatch: %v", name, round, err)
			}
			for j := 0; j < k; j++ {
				want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(multiDsts[j], want.Multi) {
					t.Fatalf("%s round %d: RunBatch[%d] differs from serial", name, round, j)
				}
				if !equalInt64(redDsts[j], want.Reductions) {
					t.Fatalf("%s round %d: ReduceBatch[%d] differs from serial", name, round, j)
				}
			}
		}
		plan.Close()
	}
}

// TestBatchWorkerMatrix stresses the fused batch paths: serial and
// chunked batches across worker counts and the carry-heavy label
// shapes, with results checked against per-vector serial runs.
func TestBatchWorkerMatrix(t *testing.T) {
	const n, k = 1023, 4
	rng := rand.New(rand.NewSource(93))
	for _, shape := range sortedShapes(rng, n) {
		srcs := make([][]int64, k)
		multiDsts := make([][]int64, k)
		redDsts := make([][]int64, k)
		for j := 0; j < k; j++ {
			srcs[j] = make([]int64, n)
			for i := range srcs[j] {
				srcs[j][i] = int64(rng.Intn(100))
			}
			multiDsts[j] = make([]int64, n)
			redDsts[j] = make([]int64, shape.m)
		}
		for _, name := range []string{"serial", "chunked"} {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4} {
				plan, err := be.Plan(core.AddInt64, shape.labels, shape.m, core.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.RunBatch(multiDsts, srcs); err != nil {
					t.Fatalf("%s/%s/w%d: RunBatch: %v", name, shape.name, workers, err)
				}
				if err := plan.ReduceBatch(redDsts, srcs); err != nil {
					t.Fatalf("%s/%s/w%d: ReduceBatch: %v", name, shape.name, workers, err)
				}
				for j := 0; j < k; j++ {
					want, err := core.Serial(core.AddInt64, srcs[j], shape.labels, shape.m)
					if err != nil {
						t.Fatal(err)
					}
					if !equalInt64(multiDsts[j], want.Multi) {
						t.Fatalf("%s/%s/w%d: vector %d multi differs", name, shape.name, workers, j)
					}
					if !equalInt64(redDsts[j], want.Reductions) {
						t.Fatalf("%s/%s/w%d: vector %d reductions differ", name, shape.name, workers, j)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestRunBatchZeroAllocs asserts the batch perf property: a warm plan
// evaluates a whole batch with zero heap allocations on the fused
// paths (serial at any worker count, chunked team).
func TestRunBatchZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	const k = 4
	srcs := make([][]int64, k)
	multiDsts := make([][]int64, k)
	redDsts := make([][]int64, k)
	for j := 0; j < k; j++ {
		srcs[j] = values
		multiDsts[j] = make([]int64, len(values))
		redDsts[j] = make([]int64, m)
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{}},
		{"serial", core.Config{Workers: 4}},
		{"chunked", core.Config{Workers: 4}},
	}
	for _, tc := range cases {
		be, err := Open[int64](tc.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		runBatch := func() {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		reduceBatch := func() {
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		runBatchCall := func() {
			if err := plan.RunBatchCall(Call{}, multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		reduceBatchCall := func() {
			if err := plan.ReduceBatchCall(Call{}, redDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		runBatch()
		reduceBatch() // warm the team and any lazy scratch
		if allocs := testing.AllocsPerRun(5, runBatch); allocs != 0 {
			t.Errorf("%s/w%d: RunBatch %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceBatch); allocs != 0 {
			t.Errorf("%s/w%d: ReduceBatch %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		// The per-call override variants are //mp:hotpath too: the
		// config save/restore must stay on the stack.
		if allocs := testing.AllocsPerRun(5, runBatchCall); allocs != 0 {
			t.Errorf("%s/w%d: RunBatchCall %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceBatchCall); allocs != 0 {
			t.Errorf("%s/w%d: ReduceBatchCall %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		plan.Close()
	}
}

// TestBatchValidation: shape mismatches and closed plans are typed
// input errors, checked before any work.
func TestBatchValidation(t *testing.T) {
	labels := []int{0, 1, 0, 2}
	be, err := Open[int64]("serial")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]int64{{1, 2, 3, 4}}
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, good); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Count mismatch.
	if err := plan.RunBatch(nil, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("dst/src count mismatch accepted: %v", err)
	}
	// Wrong source length.
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, [][]int64{{1, 2}}); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short source accepted: %v", err)
	}
	// Wrong destination length — and ReduceBatch wants length m, not n.
	if err := plan.RunBatch([][]int64{make([]int64, 3)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short multi destination accepted: %v", err)
	}
	if err := plan.ReduceBatch([][]int64{make([]int64, 4)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("n-length reduce destination accepted: %v", err)
	}
	if err := plan.ReduceBatch([][]int64{make([]int64, 3)}, good); err != nil {
		t.Fatalf("valid reduce batch rejected: %v", err)
	}
	// Empty batch is a no-op, not an error.
	if err := plan.RunBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	plan.Close()
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("closed plan accepted a batch: %v", err)
	}
}

// TestBatchCancellation: a cancelled context surfaces as
// context.Canceled from the fused batch paths and is never masked by
// the auto fallback.
func TestBatchCancellation(t *testing.T) {
	values, labels, m := planAllocInput()
	srcs := [][]int64{values, values}
	multiDsts := [][]int64{make([]int64, len(values)), make([]int64, len(values))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{Ctx: ctx}},
		{"serial", core.Config{Ctx: ctx, Workers: 4}},
		{"chunked", core.Config{Ctx: ctx, Workers: 4}},
		{"auto", core.Config{Ctx: ctx, Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}}},
	} {
		be, err := Open[int64](tc.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.RunBatch(multiDsts, srcs); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", tc.name, err)
		}
		plan.Close()
	}
}

// TestBatchPanicRecovery: a combine panic mid-batch surfaces as the
// typed engine-panic error on explicit backends, the team stays
// healthy for the next batch, and the auto plan's fallback absorbs the
// failure into a correct serial batch.
func TestBatchPanicRecovery(t *testing.T) {
	const n, m, k = 2000, 16, 3
	rng := rand.New(rand.NewSource(95))
	labels, srcs, multiDsts, _ := batchInput(rng, n, m, k)
	// fired is shared by the team's workers, so it must be atomic.
	var fired atomic.Bool
	oneShot := core.Op[int64]{
		Name:     "+int64 (one-shot panic)",
		Identity: 0,
		Combine: func(a, x int64) int64 {
			if fired.CompareAndSwap(false, true) {
				panic("injected")
			}
			return a + x
		},
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	for _, name := range []string{"serial", "chunked"} {
		fired.Store(false)
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(oneShot, labels, m, core.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var pe *core.EnginePanicError
		if err := plan.RunBatch(multiDsts, srcs); !errors.As(err, &pe) {
			t.Fatalf("%s: want EnginePanicError, got %v", name, err)
		}
		if !fired.Load() {
			t.Fatalf("%s: panic never fired", name)
		}
		// Same plan, same team: the retry must succeed and be correct —
		// the aborting worker drained its barrier phases instead of
		// poisoning the team.
		if err := plan.RunBatch(multiDsts, srcs); err != nil {
			t.Fatalf("%s: batch after recovered panic: %v", name, err)
		}
		for j := 0; j < k; j++ {
			want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(multiDsts[j], want.Multi) {
				t.Fatalf("%s: post-recovery batch vector %d differs", name, j)
			}
		}
		plan.Close()
	}

	// The auto plan degrades the failed batch to the fused serial batch.
	fired.Store(false)
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(oneShot, labels, m, core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if err := plan.RunBatch(multiDsts, srcs); err != nil {
		t.Fatalf("auto batch fallback: %v", err)
	}
	if !fired.Load() {
		t.Fatal("auto: panic never fired")
	}
	for j := 0; j < k; j++ {
		want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(multiDsts[j], want.Multi) {
			t.Fatalf("auto: fallback batch vector %d differs", j)
		}
	}
}

// FuzzBatchParity cross-checks RunBatch/ReduceBatch on every backend
// against per-vector serial references over fuzz-chosen shapes and
// batch sizes.
func FuzzBatchParity(f *testing.F) {
	f.Add(int64(1), uint16(256), uint8(8), uint8(3))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1))
	f.Add(int64(4), uint16(700), uint8(30), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, kRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 1024
		m := int(mRaw)%32 + 1
		k := int(kRaw)%4 + 1
		labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
		wants := make([]core.Result[int64], k)
		for j := 0; j < k; j++ {
			want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
			if err != nil {
				t.Fatal(err)
			}
			wants[j] = want
		}
		for _, name := range Names() {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatalf("%s: RunBatch: %v", name, err)
			}
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatalf("%s: ReduceBatch: %v", name, err)
			}
			for j := 0; j < k; j++ {
				if !equalInt64(multiDsts[j], wants[j].Multi) {
					t.Fatalf("%s: n=%d m=%d k=%d: RunBatch[%d] differs", name, n, m, k, j)
				}
				if !equalInt64(redDsts[j], wants[j].Reductions) {
					t.Fatalf("%s: n=%d m=%d k=%d: ReduceBatch[%d] differs", name, n, m, k, j)
				}
			}
			plan.Close()
		}
	})
}
