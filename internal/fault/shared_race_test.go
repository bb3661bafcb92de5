// Race audit for the Injector: one hook shared by every shard worker
// of a parallel run, and by several concurrent runs at once, must be
// race-free (`go test -race ./internal/fault`). This is the access
// pattern the chunked/parallel team bodies and the service's chaos mode
// produce. The package is fault_test so the test can drive the real
// engines through the backend registry.
package fault_test

import (
	"math/rand"
	"sync"
	"testing"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// TestInjectorSharedAcrossWorkers runs the chunked and parallel team
// engines with one inert Injector observing every combine from all
// worker goroutines concurrently, then several goroutines sharing the
// same hook across overlapping runs. With -race this proves the
// counter and stall paths are properly synchronized; the counter
// totals prove the hook was actually reached from the parallel
// phases.
func TestInjectorSharedAcrossWorkers(t *testing.T) {
	const n, m = 6000, 32
	rng := rand.New(rand.NewSource(11))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	in := fault.New() // inert: counts every event, injects nothing
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}

	// One hook, one run, many shard workers.
	for _, name := range []string{"chunked", "spinetree", "parallel"} {
		res, err := backend.Compute(name, core.AddInt64, values, labels, m,
			core.Config{Workers: 4, FaultHook: in})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("%s: hooked run differs at %d", name, i)
			}
		}
	}
	afterSequential := in.Combines.Load()
	if afterSequential == 0 {
		t.Fatal("shared hook never observed a combine")
	}

	// One hook, many concurrent runs (each itself multi-worker), plus
	// a stall configured so the CAS latch is exercised under
	// contention.
	shared := fault.New()
	shared.StallPhase = core.PhaseChunkLocal
	shared.StallWorker = 0
	shared.Stall = 1 // nanosecond-scale: latch behavior, no slowdown
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "chunked"
			if g%2 == 1 {
				name = "parallel"
			}
			for it := 0; it < 4; it++ {
				if _, err := backend.Compute(name, core.AddInt64, values, labels, m,
					core.Config{Workers: 4, FaultHook: shared}); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				_ = shared.Combines.Load() // mid-run reads are part of the contract
				_ = shared.Barriers.Load()
			}
		}(g)
	}
	wg.Wait()
	if shared.Combines.Load() < int64(n) {
		t.Errorf("shared hook combine count = %d, want >= %d", shared.Combines.Load(), n)
	}
}
