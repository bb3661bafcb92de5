package core

import (
	"runtime"
	"sync"

	"multiprefix/internal/par"
)

// Workspace is a pool of reusable engine state. The paper's position
// is that multiprefix is a *primitive* — called once per radix-sort
// pass or SpMV step — so per-call setup dominates at production call
// rates; a Workspace amortizes it away: arena vectors, spine pointers,
// per-chunk buckets, result slices and the worker goroutines
// themselves are all created on the first call and reused afterwards,
// making steady-state Compute/Reduce calls allocation-free.
//
// Acquire a *Buffers, run any number of operations on it, Release it
// when done. The pool is backed by sync.Pool, so idle Buffers are
// dropped under memory pressure (their worker teams are shut down by a
// GC cleanup) and Acquire never blocks.
type Workspace[T any] struct {
	pool sync.Pool
}

// NewWorkspace returns an empty workspace.
func NewWorkspace[T any]() *Workspace[T] {
	ws := &Workspace[T]{}
	ws.pool.New = func() any { return &Buffers[T]{} }
	return ws
}

// Acquire returns a Buffers for exclusive use by one goroutine.
func (ws *Workspace[T]) Acquire() *Buffers[T] {
	return ws.pool.Get().(*Buffers[T])
}

// Release returns b to the pool. Results returned from b's methods
// alias its internal storage and must not be used after Release.
func (ws *Workspace[T]) Release(b *Buffers[T]) {
	ws.pool.Put(b)
}

// Buffers is the reusable state of one multiprefix execution stream:
// result slices, the spinetree arena, per-chunk bucket storage, and a
// persistent team of worker goroutines. Not safe for concurrent use.
//
// Results returned by Buffers methods alias internal storage: they are
// valid until the next call on the same Buffers (or its Release).
// Callers that need to keep a result copy it out.
type Buffers[T any] struct {
	multi []T
	red   []T
	aux   []T   // values scratch for derived helpers (EnumerateIn)
	lab   []int // labels scratch for derived helpers (SegmentedScanIn)
	arena arena[T]

	team    *par.Team
	oneShot bool            // rounds run on goroutines that exit with them (see round)
	runner  *parRunner[T]   // Parallel state
	chunk   *chunkRunner[T] // Chunked state
}

func (b *Buffers[T]) growMulti(n int) []T {
	b.multi = grown(b.multi, n)
	return b.multi
}

func (b *Buffers[T]) growRed(m int) []T {
	b.red = grown(b.red, m)
	return b.red
}

// ensureTeam returns a persistent worker team of exactly the given
// size, rebuilding only when the size changed since the previous call
// (steady-state same-shape calls reuse the parked goroutines).
func (b *Buffers[T]) ensureTeam(workers int) *par.Team {
	if b.team != nil && b.team.Workers() == workers {
		return b.team
	}
	if b.team != nil {
		b.team.Close()
	}
	t := par.NewTeam(workers)
	b.team = t
	// Buffers dropped by the GC (a sync.Pool eviction, or a caller that
	// never Releases) must not leak the team's parked goroutines.
	runtime.AddCleanup(b, func(t *par.Team) { t.Close() }, t)
	return t
}

// dropTeam shuts the team down; the next call rebuilds it. Called
// after a failed Parallel round, whose workers have all dropped out of
// the team's inner barrier.
func (b *Buffers[T]) dropTeam() {
	if b.team != nil {
		b.team.Close()
		b.team = nil
	}
}

// round runs body(w, bar) for every w in [0, workers) and waits for
// all of them; bar spans exactly those workers. A pooled
// Buffers runs the round on its persistent team. A one-shot Buffers
// (the package-level engines) runs worker 0 on the calling goroutine
// and the rest on goroutines that exit with the round, with a fresh
// barrier, so a one-shot call leaves nothing running behind it.
func (b *Buffers[T]) round(workers int, body func(w int, bar *par.Barrier)) {
	if !b.oneShot {
		b.ensureTeam(workers).Run(body)
		return
	}
	bar := par.NewBarrier(workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, bar)
		}(w)
	}
	body(0, bar)
	wg.Wait()
}

// oneShotPools holds one Workspace of one-shot Buffers per element
// type, keyed by any((*T)(nil)).
var oneShotPools sync.Map

// oneShot runs one pooled engine method for a package-level engine
// call. The Buffers comes from the process-wide one-shot pool; after
// the run its result vectors are handed to the caller (the next run
// on that Buffers grows fresh ones) and its references to the
// caller's inputs are cleared, so nothing the caller owns stays
// reachable from the pool.
func oneShot[T, R any](op Op[T], values []T, labels []int, m int, cfg Config,
	run func(*Buffers[T], Op[T], []T, []int, int, Config) (R, error)) (R, error) {
	key := any((*T)(nil))
	p, ok := oneShotPools.Load(key)
	if !ok {
		ws := &Workspace[T]{}
		ws.pool.New = func() any { return &Buffers[T]{oneShot: true} }
		p, _ = oneShotPools.LoadOrStore(key, ws)
	}
	ws := p.(*Workspace[T])
	b := ws.Acquire()
	res, err := run(b, op, values, labels, m, cfg)
	b.multi, b.red = nil, nil
	if r := b.runner; r != nil {
		r.reset(&b.arena, Op[T]{}, nil, nil, nil, 0, Config{})
	}
	if r := b.chunk; r != nil {
		r.reset(Op[T]{}, nil, nil, nil, 0, 0, Config{})
	}
	ws.Release(b)
	return res, err
}

// Serial is Serial drawing result storage from b.
//
//mp:hotpath
func (b *Buffers[T]) Serial(op Op[T], values []T, labels []int, m int) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if !tryBucketLoop(op.Fast, values, labels, multi, red) {
		for i, v := range values {
			l := labels[i]
			multi[i] = red[l]
			red[l] = op.Combine(red[l], v)
		}
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SerialReduce is SerialReduce drawing result storage from b.
//
//mp:hotpath
func (b *Buffers[T]) SerialReduce(op Op[T], values []T, labels []int, m int) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if !tryBucketLoop(op.Fast, values, labels, nil, red) {
		for i, v := range values {
			l := labels[i]
			red[l] = op.Combine(red[l], v)
		}
	}
	return red, nil
}

// SerialEngine adapts b's pooled Serial to the Engine signature.
func (b *Buffers[T]) SerialEngine() Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Serial(op, values, labels, m)
	}
}

// SpinetreeEngine adapts b's pooled Spinetree with a fixed Config.
func (b *Buffers[T]) SpinetreeEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Spinetree(op, values, labels, m, cfg)
	}
}

// ParallelEngine adapts b's pooled Parallel with a fixed Config.
func (b *Buffers[T]) ParallelEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Parallel(op, values, labels, m, cfg)
	}
}

// ChunkedEngine adapts b's pooled Chunked with a fixed Config.
func (b *Buffers[T]) ChunkedEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Chunked(op, values, labels, m, cfg)
	}
}

// EnumerateIn is Enumerate drawing the internal all-ones value vector
// from b, so repeated enumerations through a pooled engine are
// allocation-free end to end.
func EnumerateIn(b *Buffers[int64], labels []int, m int, engine Engine[int64]) (ranks, counts []int64, err error) {
	if engine == nil {
		return nil, nil, wrapBadInput("nil engine")
	}
	if err := checkAddrs("labels", labels, m); err != nil {
		return nil, nil, err
	}
	b.aux = grown(b.aux, len(labels))
	for i := range b.aux {
		b.aux[i] = 1
	}
	res, err := engine(AddInt64, b.aux, labels, m)
	if err != nil {
		return nil, nil, err
	}
	return res.Multi, res.Reductions, nil
}

// SegmentedScanIn is SegmentedScan drawing the materialized label
// vector from b instead of allocating it per call.
func SegmentedScanIn[T any](b *Buffers[T], op Op[T], values []T, segments []bool, engine Engine[T]) (scans, totals []T, err error) {
	if err := checkDerivedArgs(op, engine); err != nil {
		return nil, nil, err
	}
	if len(values) != len(segments) {
		return nil, nil, wrapBadInput("len(values)=%d, len(segments)=%d", len(values), len(segments))
	}
	b.lab = grown(b.lab, len(segments))
	seg := -1
	for i, start := range segments {
		if start || i == 0 {
			seg++
		}
		b.lab[i] = seg
	}
	res, err := engine(op, values, b.lab, seg+1)
	if err != nil {
		return nil, nil, err
	}
	return res.Multi, res.Reductions, nil
}
