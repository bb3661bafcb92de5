package backend

import (
	"multiprefix/internal/core"
)

// This file is the planned sort-scan executor behind the "sorted"
// backend. Everything value-independent happens at plan time: one
// stable counting sort of the labels into a permutation and per-label
// run bounds (the stable sort keeps same-label elements in vector
// order, so a scan along a run applies exactly the combines of
// Definition 1 in the serial order), plus the cache tiling of that
// scan. An evaluation is then one fused segmented scan per vector on
// the calling goroutine, bit-identical to the serial engine for every
// operator and element type. Like the serial plan it ignores Workers.

// sortExec is the sort-scan executor.
type sortExec[T any] struct {
	p *Plan[T]
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red   []T
	perm  []int32 // stable counting-sort permutation
	start []int32 // per-label run bounds, len m+1
	// tiles is the plan-time cache tiling of the scan. Nil when tiling
	// doesn't apply (generic element type, non-fast op, or n within one
	// tile window); runs with a FaultHook skip it at dispatch since
	// fast demotes to FastNone.
	tiles *core.TileSegs
	stop  func() bool // prebound context poll for the kernels
}

// newSortExec builds the plan-time structures: the counting sort and
// the tiling.
//
//mp:locked
func newSortExec[T any](p *Plan[T]) (*sortExec[T], error) {
	idx, err := core.BuildSortedIndex(p.labels, p.m)
	if err != nil {
		return nil, err
	}
	e := &sortExec[T]{
		p:     p,
		multi: make([]T, p.n),
		red:   make([]T, p.m),
		perm:  idx.Perm,
		start: idx.Start,
		stop:  func() bool { return p.cfg.Ctx.Err() != nil },
	}
	e.buildTiles()
	return e, nil
}

// buildTiles builds the plan-time cache tiling of the scan when the
// tiled kernels apply: a monomorphic element type, an op with a fast
// kernel, and an input large enough to span multiple tile windows. The
// tiling is value-independent, so like the counting sort it happens
// once per plan.
//
//mp:locked
func (e *sortExec[T]) buildTiles() {
	p := e.p
	if !core.FastScans[T](p.op.Fast) {
		return
	}
	window := core.TileWindow(p.n, core.AutoTileBytes(p.cfg))
	if window == 0 {
		return
	}
	// Short segments starve the interleave: each tile segment pays
	// fixed chain-setup bookkeeping amortized over its run length, and
	// below ~128 elements per segment (window/256) the untiled kernel
	// wins — measured crossover on the reference host (1.7-2.1x tiled
	// at 128-2048 elements/segment, noise at 64, 0.5-0.95x at 32 and
	// below). Test-sized windows (256 elements) keep the floor at one
	// element, so forced-tiling tests and fuzzing exercise every
	// segment shape.
	if minSeg := window / 256; minSeg > 1 && p.n < p.m*minSeg {
		return
	}
	ts := core.BuildTileSegs(e.perm, e.start, window)
	e.tiles = &ts
}

// Tiled reports whether the plan runs the cache-tiled sorted kernels —
// plan metadata for tests and the benchmark harness.
func (p *Plan[T]) Tiled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exec.(*sortExec[T])
	return ok && e.tiles != nil
}

//mp:locked
func (e *sortExec[T]) run(values []T) (core.Result[T], error) {
	if err := e.scan(values, e.multi, e.red); err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: e.multi, Reductions: e.red}, nil
}

//mp:locked
func (e *sortExec[T]) reduce(values []T) ([]T, error) {
	if err := e.scan(values, nil, e.red); err != nil {
		return nil, err
	}
	return e.red, nil
}

// batch is the fused batch: one fused scan per vector, straight into
// the caller's destinations.
//
//mp:locked
func (e *sortExec[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	for k := range srcs {
		multi, red := dsts[k], e.red
		if !withMulti {
			multi, red = nil, dsts[k]
		}
		if err := e.scan(srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

func (e *sortExec[T]) close() {}

// scan is the fused scan of one vector: prefixes into multi (nil for
// reduce-only), run totals into red. It is tiled when the plan built
// tiles and the run's fast kind allows. With a context set it polls at
// entry — so a cancelled batch of short vectors, which never exhaust
// the in-scan stride credit, stops between vectors — and inside the
// kernels.
//
//mp:locked
//mp:polls
func (e *sortExec[T]) scan(values, multi, red []T) (err error) {
	defer recoverPlanPanic("plan/sorted", &err)
	p := e.p
	fast := p.op.FastKind(p.cfg.FaultHook)
	var stop func() bool
	if p.cfg.Ctx != nil {
		if err := p.cfg.Ctx.Err(); err != nil {
			return err
		}
		stop = e.stop
	}
	var ok bool
	if e.tiles != nil && core.FastScans[T](fast) {
		ok = core.SortedTiledScanLabels(p.op, fast, values, e.perm, e.start, multi, red, e.tiles, stop)
	} else {
		ok = core.SortedScanLabels(p.op, fast, values, e.perm, e.start, multi, red, p.cfg.FaultHook, stop)
	}
	if !ok {
		return p.cfg.Ctx.Err()
	}
	return nil
}
