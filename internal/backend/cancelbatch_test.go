package backend

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"multiprefix/internal/core"
)

// cancelAtScanCombine is a FaultHook that cancels a context at the
// k-th sorted-scan combine — a deterministic way to cancel a batch
// between two of its vectors: scan combines number exactly n per
// vector, so firing at n*v+1 cancels at the first combine of vector
// v.
type cancelAtScanCombine struct {
	at     int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (h *cancelAtScanCombine) Combine(phase string, _ int) {
	if phase == core.PhaseSortedScan && h.count.Add(1) == h.at {
		h.cancel()
	}
}
func (h *cancelAtScanCombine) Barrier(string, int)          {}
func (h *cancelAtScanCombine) SpineTest(_ int, s bool) bool { return s }

// TestSortedBatchCancelMidBatch cancels Config.Ctx between vectors of
// a sorted RunBatch/ReduceBatch — on the single-worker fused loop and
// on the team path across worker counts — and asserts the three
// robustness properties the service relies on: the batch fails with
// the typed cancellation (never partial success), vectors past the
// cancellation point are untouched, and the team stays healthy: the
// next batch on the same plan succeeds bit-identically.
func TestSortedBatchCancelMidBatch(t *testing.T) {
	const n, m, k = 1500, 24, 4
	const sentinel = int64(-987654321)
	rng := rand.New(rand.NewSource(71))
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
	wants := make([]core.Result[int64], k)
	for j := range srcs {
		want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		wants[j] = want
	}
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, reduceOnly := range []bool{false, true} {
			plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			dstLen := n
			if reduceOnly {
				dstLen = m
			}
			dsts := make([][]int64, k)
			for j := range dsts {
				dsts[j] = make([]int64, dstLen)
				for i := range dsts[j] {
					dsts[j][i] = sentinel
				}
			}
			// Cancel at the first scan combine of vector 1: vectors 2
			// and 3 must never be touched.
			ctx, cancel := context.WithCancel(context.Background())
			hook := &cancelAtScanCombine{at: n + 1, cancel: cancel}
			call := Call{Ctx: ctx, Hook: hook}
			var cerr error
			if reduceOnly {
				cerr = plan.ReduceBatchCall(call, dsts, srcs)
			} else {
				cerr = plan.RunBatchCall(call, dsts, srcs)
			}
			if !errors.Is(cerr, context.Canceled) {
				t.Fatalf("w%d reduce=%v: want context.Canceled, got %v", workers, reduceOnly, cerr)
			}
			for j := 2; j < k; j++ {
				for i, v := range dsts[j] {
					if v != sentinel {
						t.Fatalf("w%d reduce=%v: vector %d written at %d after cancellation", workers, reduceOnly, j, i)
					}
				}
			}
			// Same plan, same team: a clean batch must still succeed and
			// be bit-identical to serial — the aborting workers drained
			// their barrier arrivals instead of poisoning the team.
			for j := range dsts {
				for i := range dsts[j] {
					dsts[j][i] = sentinel
				}
			}
			if reduceOnly {
				cerr = plan.ReduceBatch(dsts, srcs)
			} else {
				cerr = plan.RunBatch(dsts, srcs)
			}
			if cerr != nil {
				t.Fatalf("w%d reduce=%v: batch after cancellation: %v", workers, reduceOnly, cerr)
			}
			for j := range dsts {
				want := wants[j].Multi
				if reduceOnly {
					want = wants[j].Reductions
				}
				if !equalInt64(dsts[j], want) {
					t.Fatalf("w%d reduce=%v: post-cancel batch vector %d differs", workers, reduceOnly, j)
				}
			}
			plan.Close()
			cancel()
		}
	}
}
