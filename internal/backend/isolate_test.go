package backend

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// TestBatchSplitIsolation is the split-and-rerun half of a batch
// abort: RunEach/ReduceEach evaluate each vector under its own Call,
// so a poisoned vector (injected combine panic, cancelled context)
// fails alone with its typed error while every sibling still gets a
// correct answer — the per-request isolation the service's coalescer
// applies after a fused batch aborts.
func TestBatchSplitIsolation(t *testing.T) {
	const n, m, k = 1200, 16, 4
	rng := rand.New(rand.NewSource(77))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs := make([][]int64, k)
	for j := range srcs {
		srcs[j] = make([]int64, n)
		for i := range srcs[j] {
			srcs[j][i] = int64(rng.Intn(100))
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The planned serial pass never observes fault hooks, so the
	// panic-injection half runs on the chunked plan, whose team drains
	// its barrier arrivals after a recovered panic.
	for _, name := range []string{"chunked"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
		if err != nil {
			t.Fatal(err)
		}
		dsts := make([][]int64, k)
		for j := range dsts {
			dsts[j] = make([]int64, n)
		}
		// Vector 1 panics, vector 2 is cancelled; 0 and 3 are clean.
		in := fault.New()
		in.PanicEvent = fault.EventCombine
		in.PanicIndex = n / 3
		calls := []Call{{}, {Hook: in}, {Ctx: cancelled}, {}}
		errs := plan.RunEach(calls, dsts, srcs)
		var pe *core.EnginePanicError
		if !errors.As(errs[1], &pe) {
			t.Errorf("%s: poisoned vector: want EnginePanicError, got %v", name, errs[1])
		}
		if !errors.Is(errs[2], context.Canceled) {
			t.Errorf("%s: cancelled vector: want Canceled, got %v", name, errs[2])
		}
		for _, j := range []int{0, 3} {
			if errs[j] != nil {
				t.Errorf("%s: clean vector %d failed: %v", name, j, errs[j])
				continue
			}
			want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(dsts[j], want.Multi) {
				t.Errorf("%s: clean vector %d differs after split", name, j)
			}
		}
		// Reduce form, same isolation.
		reds := make([][]int64, k)
		for j := range reds {
			reds[j] = make([]int64, m)
		}
		in2 := fault.New()
		in2.PanicEvent = fault.EventCombine
		in2.PanicIndex = n / 3
		errs = plan.ReduceEach([]Call{{}, {Hook: in2}, {Ctx: cancelled}, {}}, reds, srcs)
		if errs[1] == nil || errs[2] == nil || errs[0] != nil || errs[3] != nil {
			t.Errorf("%s: ReduceEach isolation errs = %v", name, errs)
		}
		want, err := core.Serial(core.AddInt64, srcs[3], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(reds[3], want.Reductions) {
			t.Errorf("%s: clean reduce vector differs after split", name)
		}
		plan.Close()
	}

	// The auto plan's in-plan fallback absorbs the panic: the poisoned
	// vector still succeeds (serially), only the cancelled one fails.
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	dsts := make([][]int64, k)
	for j := range dsts {
		dsts[j] = make([]int64, n)
	}
	in := fault.New()
	in.PanicEvent = fault.EventCombine
	in.PanicIndex = n / 3
	errs := plan.RunEach([]Call{{}, {Hook: in}, {Ctx: cancelled}, {}}, dsts, srcs)
	for _, j := range []int{0, 1, 3} {
		if errs[j] != nil {
			t.Errorf("auto: vector %d: %v", j, errs[j])
			continue
		}
		want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(dsts[j], want.Multi) {
			t.Errorf("auto: vector %d differs", j)
		}
	}
	if !errors.Is(errs[2], context.Canceled) {
		t.Errorf("auto: cancelled vector: want Canceled, got %v", errs[2])
	}

	// Shape errors fill every slot with the typed input error.
	short := plan.RunEach(nil, dsts[:2], srcs)
	if len(short) != k {
		t.Fatalf("mismatched split errs length = %d", len(short))
	}
	for _, e := range short {
		if !errors.Is(e, core.ErrBadInput) {
			t.Fatalf("shape error not propagated to every slot: %v", short)
		}
	}
}
