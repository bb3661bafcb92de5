package core

import (
	"context"
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

	team   *par.Team
	runner *parRunner[T]   // pooled Parallel state
	chunk  *chunkRunner[T] // pooled Chunked state
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
// after a failed Parallel run, whose barrier Drop may have poisoned
// the team's inner barrier.
func (b *Buffers[T]) dropTeam() {
	if b.team != nil {
		b.team.Close()
		b.team = nil
	}
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

// Spinetree is Spinetree reusing b's arena and result storage.
//
//mp:hotpath
func (b *Buffers[T]) Spinetree(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a := &b.arena
	if err := a.prepare(op, labels, m, cfg); err != nil {
		return Result[T]{}, err
	}
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	a.phaseSpinetree(labels)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseRowsums
	a.phaseRowsums(op, values, cfg.FaultHook)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseSpinesums
	a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, cfg.FaultHook, red)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseMultisums
	a.phaseMultisums(op, values, multi, cfg.FaultHook)
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SpinetreeReduce is SpinetreeReduce reusing b's arena and storage.
//
//mp:hotpath
func (b *Buffers[T]) SpinetreeReduce(op Op[T], values []T, labels []int, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a := &b.arena
	if err := a.prepare(op, labels, m, cfg); err != nil {
		return nil, err
	}
	red := b.growRed(m)
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	a.phaseSpinetree(labels)
	phase = PhaseRowsums
	a.phaseRowsums(op, values, cfg.FaultHook)
	phase = PhaseSpinesums
	a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook)
	phase = PhaseReduce
	a.reductionsInto(op, cfg.FaultHook, red)
	return red, nil
}

// Parallel is Parallel reusing b's arena, result storage and worker
// team. A failed run (panic, cancellation) may have poisoned the
// team's barrier, so the team is rebuilt on the next call.
//
//mp:hotpath
func (b *Buffers[T]) Parallel(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a := &b.arena
	if err := a.prepare(op, labels, m, cfg); err != nil {
		return Result[T]{}, err
	}
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	workers := parWorkers(cfg.Workers, a.grid.P)
	if b.runner == nil {
		b.runner = newPooledParRunner[T]()
	}
	r := b.runner
	r.reset(a, op, values, labels, multi, workers, cfg)
	team := b.ensureTeam(workers)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	team.Run(r.mainBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, r.hook, red)
	phase = PhaseMultisums
	team.Run(r.multiBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ParallelReduce is ParallelReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ParallelReduce(op Op[T], values []T, labels []int, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a := &b.arena
	if err := a.prepare(op, labels, m, cfg); err != nil {
		return nil, err
	}
	red := b.growRed(m)
	workers := parWorkers(cfg.Workers, a.grid.P)
	if b.runner == nil {
		b.runner = newPooledParRunner[T]()
	}
	r := b.runner
	r.reset(a, op, values, labels, nil, workers, cfg)
	team := b.ensureTeam(workers)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	team.Run(r.mainBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return nil, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, r.hook, red)
	return red, nil
}

// Chunked is Chunked reusing b's per-chunk buckets, result storage and
// worker team. Chunk bodies never touch the team's inner barrier, so a
// failed chunked run leaves the team healthy.
//
//mp:hotpath
func (b *Buffers[T]) Chunked(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	n := len(values)
	workers := chunkWorkers(cfg.Workers, n)
	multi := b.growMulti(n)
	red := b.growRed(m)
	phase := PhaseChunkLocal
	defer recoverEnginePanic("chunked", &phase, &err)
	if b.chunk == nil {
		b.chunk = newChunkRunner[T]()
	}
	r := b.chunk
	r.reset(op, values, labels, multi, m, workers, cfg)
	team := b.ensureTeam(workers)
	team.Run(r.localBody)
	if err := r.g.first(); err != nil {
		return Result[T]{}, err
	}

	phase = PhaseChunkMerge
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	r.merge(red)

	phase = PhaseChunkApply
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	if workers > 1 {
		team.Run(r.applyBody)
		if err := r.g.first(); err != nil {
			return Result[T]{}, err
		}
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ChunkedReduce is ChunkedReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ChunkedReduce(op Op[T], values []T, labels []int, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	n := len(values)
	workers := chunkWorkers(cfg.Workers, n)
	red := b.growRed(m)
	phase := PhaseChunkLocal
	defer recoverEnginePanic("chunked", &phase, &err)
	if b.chunk == nil {
		b.chunk = newChunkRunner[T]()
	}
	r := b.chunk
	r.reset(op, values, labels, nil, m, workers, cfg)
	team := b.ensureTeam(workers)
	team.Run(r.localBody)
	if err := r.g.first(); err != nil {
		return nil, err
	}
	phase = PhaseChunkMerge
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	r.merge(red)
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

// chunkRunner is the reusable state of the pooled Chunked engine: the
// per-chunk buckets, first-touch bookkeeping and prebound worker
// bodies. The bodies never use the team's inner barrier — chunk phases
// synchronize only through the round gate — so a chunked failure never
// poisons the team.
type chunkRunner[T any] struct {
	op      Op[T]
	values  []T
	labels  []int
	multi   []T // nil in reduce-only runs
	fast    FastOp
	hook    FaultHook
	ctx     context.Context
	workers int
	n       int
	buckets [][]T
	seen    [][]bool
	touched [][]int
	g       chunkGuard

	localBody func(w int, bar *par.Barrier)
	applyBody func(w int, bar *par.Barrier)
}

func newChunkRunner[T any]() *chunkRunner[T] {
	r := &chunkRunner[T]{}
	r.localBody = r.local
	r.applyBody = r.apply
	return r
}

func (r *chunkRunner[T]) reset(op Op[T], values []T, labels []int, multi []T, m, workers int, cfg Config) {
	r.op, r.values, r.labels, r.multi = op, values, labels, multi
	r.hook = cfg.FaultHook
	r.fast = op.fastKind(cfg.FaultHook)
	r.ctx = cfg.Ctx
	r.workers = workers
	r.n = len(values)
	for len(r.buckets) < workers {
		r.buckets = append(r.buckets, nil)
		r.seen = append(r.seen, nil)
		r.touched = append(r.touched, nil)
	}
	for w := 0; w < workers; w++ {
		r.buckets[w] = grown(r.buckets[w], m)
		r.seen[w] = grown(r.seen[w], m)
	}
	r.g.stop.Store(false)
	r.g.mu.Lock()
	r.g.err = nil
	r.g.mu.Unlock()
}

// local runs one chunk's local serial multiprefix (Chunked pass 1+2).
func (r *chunkRunner[T]) local(w int, _ *par.Barrier) {
	defer func() {
		if rec := recover(); rec != nil {
			r.g.fail(newEnginePanic("chunked", PhaseChunkLocal, w, rec))
		}
	}()
	lo, hi := par.Range(r.n, r.workers, w)
	buckets, seen := r.buckets[w], r.seen[w]
	clear(seen)
	order := r.touched[w][:0]
	order = chunkLocalPass(r.fast, r.op, r.values, r.labels, r.multi, buckets, seen, order, lo, hi, r.hook, &r.g, r.ctx)
	r.touched[w] = order
}

// merge is Chunked pass 3 on the caller's goroutine: the exclusive
// scan across chunks per label, leaving each chunk's bucket slot
// holding its offset and red holding the total reductions.
func (r *chunkRunner[T]) merge(red []T) {
	fillIdentity(red, r.op.Identity)
	for w := 0; w < r.workers; w++ {
		bw := r.buckets[w]
		for _, l := range r.touched[w] {
			offset := red[l]
			if r.hook != nil {
				r.hook.Combine(PhaseChunkMerge, l)
			}
			red[l] = r.op.Combine(red[l], bw[l])
			bw[l] = offset
		}
	}
}

// apply is Chunked pass 4: add each chunk's offsets onto its local
// prefix sums. Chunk 0's offsets are the identity, so worker 0 idles.
func (r *chunkRunner[T]) apply(w int, _ *par.Barrier) {
	if w == 0 {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			r.g.fail(newEnginePanic("chunked", PhaseChunkApply, w, rec))
		}
	}()
	lo, hi := par.Range(r.n, r.workers, w)
	offsets := r.buckets[w]
	for seg := lo; seg < hi; seg += cancelStride {
		if r.g.interrupted(r.ctx) {
			return
		}
		end := seg + cancelStride
		if end > hi {
			end = hi
		}
		if tryChunkApply(r.fast, r.labels, offsets, r.multi, seg, end) {
			continue
		}
		for i := seg; i < end; i++ {
			if r.hook != nil {
				r.hook.Combine(PhaseChunkApply, i)
			}
			r.multi[i] = r.op.Combine(offsets[r.labels[i]], r.multi[i])
		}
	}
}

// parWorkers resolves the worker count for the parallel engines: the
// shared par.ClampWorkers normalization, capped by the grid width (no
// point exceeding the widest pardo).
func parWorkers(workers, gridP int) int {
	workers = par.ClampWorkers(workers)
	if workers > gridP {
		workers = gridP
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
