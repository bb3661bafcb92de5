package backend

import (
	"fmt"

	"multiprefix/internal/core"
)

// This file is batched Plan execution: evaluating k value vectors
// against one planned label structure in a single call. Every backend
// supports it — the default is the per-vector loop over run/reduce
// with a copy into the caller's destination — and the serial, chunked
// and vector plans run fused implementations that write each vector's
// results directly into the caller's storage (no copy) and, for the
// chunked plan, drive the worker team once for the whole batch
// instead of once per vector.
//
// The fused chunked body synchronizes with a fixed number of
// inner-barrier arrivals per vector (two). That count is
// deterministic, so a worker that aborts
// (recovered panic, cancellation) drains its remaining arrivals with
// par.Barrier.DrainAwait instead of Drop — siblings stay aligned and
// the team survives for the next call.

// RunBatch evaluates each srcs[k] (length n) against the planned label
// structure, writing its per-element multiprefix into dsts[k] (length
// n). Unlike Run, results go to caller-owned storage, so a warm plan
// performs no copies and no allocations; the per-vector reductions are
// computed internally but not returned — use ReduceBatch for them. The
// destination vectors must not overlap each other, the sources, or
// plan storage. On error the contents of dsts are unspecified.
//
//mp:hotpath
func (p *Plan[T]) RunBatch(dsts, srcs [][]T) error {
	return p.RunBatchCall(Call{}, dsts, srcs)
}

// RunBatchCall is RunBatch under per-call overrides: the batch runs
// with c's context and fault hook in place of the plan Config's.
//
//mp:hotpath
func (p *Plan[T]) RunBatchCall(c Call, dsts, srcs [][]T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.batch(dsts, srcs, true)
}

// ReduceBatch evaluates each srcs[k] (length n) against the planned
// label structure, writing its per-label reductions into dsts[k]
// (length m). The same storage and error rules as RunBatch apply.
//
//mp:hotpath
func (p *Plan[T]) ReduceBatch(dsts, srcs [][]T) error {
	return p.ReduceBatchCall(Call{}, dsts, srcs)
}

// ReduceBatchCall is ReduceBatch under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceBatchCall(c Call, dsts, srcs [][]T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.batch(dsts, srcs, false)
}

// batch is the locked batch body shared by the multi and reduce
// forms: validation, then dispatch.
func (p *Plan[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	dstLen := p.m
	if withMulti {
		dstLen = p.n
	}
	if err := p.checkBatch(dsts, srcs, dstLen); err != nil {
		return err
	}
	return p.runBatch(dsts, srcs, withMulti)
}

//mp:locked
func (p *Plan[T]) checkBatch(dsts, srcs [][]T, dstLen int) error {
	if p.closed {
		return fmt.Errorf("%w: batch run on a closed Plan", core.ErrBadInput)
	}
	if len(dsts) != len(srcs) {
		return fmt.Errorf("%w: %d destinations for %d sources", core.ErrBadInput, len(dsts), len(srcs))
	}
	for k := range srcs {
		if len(srcs[k]) != p.n {
			return fmt.Errorf("%w: srcs[%d] has %d values, plan built for %d", core.ErrBadInput, k, len(srcs[k]), p.n)
		}
		if len(dsts[k]) != dstLen {
			return fmt.Errorf("%w: dsts[%d] has length %d, want %d", core.ErrBadInput, k, len(dsts[k]), dstLen)
		}
	}
	return nil
}

// runBatch dispatches one validated batch to the plan's executor,
// degrading a failed auto plan to the serial pass.
//
//mp:locked
//mp:polls
func (p *Plan[T]) runBatch(dsts, srcs [][]T, withMulti bool) error {
	if len(srcs) == 0 {
		return nil
	}
	err := p.exec.batch(dsts, srcs, withMulti)
	if err == nil {
		return nil
	}
	if s := p.degrade(err); s != nil {
		return s.batch(dsts, srcs, withMulti)
	}
	return err
}
