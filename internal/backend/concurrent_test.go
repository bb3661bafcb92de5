package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// This file pins the Plan concurrency guarantee the godoc states: a
// Plan may be shared between goroutines; every entry point serializes
// on the plan lock; the batch entry points write into caller-owned
// storage and are therefore safe end-to-end. The tests run on every
// backend and are part of the race matrix (`make race-matrix`).

// TestPlanConcurrentBatch hammers one shared plan per backend with
// concurrent RunBatch/ReduceBatch callers, each writing into its own
// destinations, and checks every result against the serial reference.
// This is exactly the access pattern of the service layer's plan
// cache.
func TestPlanConcurrentBatch(t *testing.T) {
	const n, m = 777, 12
	const goroutines, iters = 6, 8
	rng := rand.New(rand.NewSource(101))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(200) - 100)
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
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
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				multi := [][]int64{make([]int64, n)}
				red := [][]int64{make([]int64, m)}
				srcs := [][]int64{values}
				for it := 0; it < iters; it++ {
					if g%2 == 0 {
						if err := plan.RunBatch(multi, srcs); err != nil {
							errc <- err
							return
						}
						if !equalInt64(multi[0], want.Multi) {
							t.Errorf("%s: concurrent RunBatch result differs", name)
							return
						}
					} else {
						if err := plan.ReduceBatchCall(Call{Ctx: context.Background()}, red, srcs); err != nil {
							errc <- err
							return
						}
						if !equalInt64(red[0], want.Reductions) {
							t.Errorf("%s: concurrent ReduceBatch result differs", name)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%s: %v", name, err)
		}
		plan.Close()
	}
}

// TestPlanConcurrentRunSerializes checks the weaker half of the
// guarantee for the aliasing entry points: concurrent Run/Reduce
// calls are serialized (no data race inside the plan, no corruption),
// even though their returned slices are only stable until the next
// call — so the test inspects errors, not contents.
func TestPlanConcurrentRunSerializes(t *testing.T) {
	values, labels, m := planAllocInput()
	for _, name := range []string{"serial", "chunked", "auto"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var failures atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < 6; it++ {
					if g%2 == 0 {
						if _, err := plan.Run(values); err != nil {
							failures.Add(1)
						}
					} else {
						if _, err := plan.Reduce(values); err != nil {
							failures.Add(1)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if f := failures.Load(); f != 0 {
			t.Errorf("%s: %d concurrent Run/Reduce failures", name, f)
		}
		plan.Close()
	}
}

// TestPlanConcurrentCallIsolation: per-call hooks and contexts stay
// with their call when calls interleave on one shared plan — a chaos
// hook on one caller must never leak a panic into another caller's
// evaluation, and a cancelled caller context must not cancel others.
func TestPlanConcurrentCallIsolation(t *testing.T) {
	const n, m = 900, 8
	rng := rand.New(rand.NewSource(103))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(50))
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chunked", "parallel"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := [][]int64{make([]int64, n)}
				srcs := [][]int64{values}
				for it := 0; it < 5; it++ {
					switch g % 3 {
					case 0: // clean caller: must always succeed, correctly
						if err := plan.RunBatch(dst, srcs); err != nil {
							t.Errorf("%s: clean caller: %v", name, err)
							return
						}
						if !equalInt64(dst[0], want.Multi) {
							t.Errorf("%s: clean caller result differs", name)
							return
						}
					case 1: // chaos caller: injected panic, typed error
						in := fault.New()
						in.PanicEvent = fault.EventCombine
						in.PanicIndex = n / 2
						var pe *core.EnginePanicError
						if err := plan.RunBatchCall(Call{Hook: in}, dst, srcs); !errors.As(err, &pe) {
							t.Errorf("%s: chaos caller: want EnginePanicError, got %v", name, err)
							return
						}
					case 2: // cancelled caller: typed cancellation
						if err := plan.RunBatchCall(Call{Ctx: cancelled}, dst, srcs); !errors.Is(err, context.Canceled) {
							t.Errorf("%s: cancelled caller: want Canceled, got %v", name, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		plan.Close()
	}
}

// TestParallelPlanSurvivesRecoveredPanics alternates calls whose hook
// panics mid-run with clean calls on one parallel plan. Every worker
// of a failed round must leave the team's barrier exactly once: a
// worker that returned between phases without leaving it hung its
// siblings within a few hooked calls. The clean calls must still
// match the serial reference, and the whole sequence must finish well
// inside the timeout.
func TestParallelPlanSurvivesRecoveredPanics(t *testing.T) {
	const n, m, calls = 900, 8, 240
	rng := rand.New(rand.NewSource(107))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(50))
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[int64]("parallel")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		dst := [][]int64{make([]int64, n)}
		srcs := [][]int64{values}
		for i := 0; i < calls; i++ {
			if i%2 == 0 {
				in := fault.New()
				in.PanicEvent = fault.EventCombine
				in.PanicIndex = n / 2
				var pe *core.EnginePanicError
				if err := plan.RunBatchCall(Call{Hook: in}, dst, srcs); !errors.As(err, &pe) {
					done <- fmt.Errorf("call %d: hooked: want EnginePanicError, got %v", i, err)
					return
				}
				continue
			}
			if err := plan.RunBatch(dst, srcs); err != nil {
				done <- fmt.Errorf("call %d: clean: %v", i, err)
				return
			}
			if !equalInt64(dst[0], want.Multi) {
				done <- fmt.Errorf("call %d: clean result differs from serial", i)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		plan.Close()
	case <-time.After(60 * time.Second):
		t.Fatal("parallel plan hung after a recovered panic")
	}
}
