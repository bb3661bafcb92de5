package core

import (
	"context"
	"sync"
	"sync/atomic"

	"multiprefix/internal/par"
)

// cancelStride is how many elements a chunked worker processes between
// polls of the cancellation flag and context. Small enough that a
// mid-run cancellation on multi-million-element inputs returns in well
// under a chunk's full runtime; large enough that the poll is free.
const cancelStride = 8192

// chunkGuard is the shared failure state of one chunked run: the first
// panic or cancellation is recorded and every worker drains at its
// next stride boundary.
type chunkGuard struct {
	stop atomic.Bool
	mu   sync.Mutex
	err  error
}

func (g *chunkGuard) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

func (g *chunkGuard) first() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// interrupted polls the failure flag and the context; a cancelled
// context is recorded as the run's failure.
func (g *chunkGuard) interrupted(ctx context.Context) bool {
	if g.stop.Load() {
		return true
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			g.fail(err)
			return true
		}
	}
	return false
}

// Chunked computes the multiprefix operation with the practical
// multicore decomposition (not from the paper; included as the modern
// baseline the spinetree engines are benchmarked against):
//
//  1. split the vector into one contiguous chunk per worker;
//  2. in parallel, run the serial algorithm on each chunk with local
//     buckets, recording which labels the chunk touched;
//  3. sequentially combine the per-chunk reductions in chunk order into
//     per-chunk label offsets (an exclusive scan over chunks, per label);
//  4. in parallel, add each chunk's offsets onto its local prefix sums.
//
// Work is O(n + W·L) where L is the number of distinct labels a chunk
// touches; combines happen strictly in vector order, so non-commutative
// operators are safe. Space is O(W·m) dense bucket storage, which is
// the right trade for m up to a few million.
//
// The execution is hardened: a panic in Op.Combine inside any worker is
// recovered into a typed *EnginePanicError and returned, and cfg.Ctx,
// when set, cancels the run within cancelStride elements.
//
// Chunked runs Buffers.Chunked on a pooled Buffers whose worker
// goroutines exit with each round; the result belongs to the caller.
func Chunked[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).Chunked)
}

// ChunkedReduce is the multireduce counterpart of Chunked: per-chunk
// local reductions combined across chunks in vector order, hardened
// the same way.
func ChunkedReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).ChunkedReduce)
}

// Chunked is Chunked reusing b's per-chunk buckets, result storage and
// worker team. Chunk bodies never touch the round's barrier, so a
// failed chunked run leaves the team healthy.
//
//mp:hotpath
func (b *Buffers[T]) Chunked(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return b.chunked(op, values, labels, m, cfg, true)
}

// ChunkedReduce is ChunkedReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ChunkedReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	res, err := b.chunked(op, values, labels, m, cfg, false)
	return res.Reductions, err
}

// chunked runs passes 1–3 of the chunked engine, and pass 4 when
// wantMulti asks for the prefixes as well as the reductions.
//
//mp:hotpath
func (b *Buffers[T]) chunked(op Op[T], values []T, labels []int, m int, cfg Config, wantMulti bool) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	n := len(values)
	workers := chunkWorkers(cfg.Workers, n)
	var multi []T
	if wantMulti {
		multi = b.growMulti(n)
	}
	red := b.growRed(m)
	phase := PhaseChunkLocal
	defer recoverEnginePanic("chunked", &phase, &err)
	if b.chunk == nil {
		b.chunk = newChunkRunner[T]()
	}
	r := b.chunk
	r.reset(op, values, labels, multi, m, workers, cfg)
	b.round(workers, r.localBody)
	if err := r.g.first(); err != nil {
		return Result[T]{}, err
	}

	phase = PhaseChunkMerge
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	r.merge(red)
	if !wantMulti || workers == 1 {
		return Result[T]{Multi: multi, Reductions: red}, nil
	}

	phase = PhaseChunkApply
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	b.round(workers, r.applyBody)
	if err := r.g.first(); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// chunkRunner is the reusable state of the chunked engine: the
// per-chunk buckets, first-touch bookkeeping and prebound worker
// bodies. The bodies never use the round's barrier — chunk passes
// synchronize only through the round itself — so a chunked failure
// never poisons a team.
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

// reset rebinds the runner to one run's inputs and sizes the per-chunk
// state for (workers, m): each first-touch list gets capacity m up
// front, so the local pass's appends never grow it.
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
		if cap(r.touched[w]) < m {
			r.touched[w] = make([]int, 0, m)
		}
	}
	r.g.stop.Store(false)
	r.g.mu.Lock()
	r.g.err = nil
	r.g.mu.Unlock()
}

// local runs one chunk's local serial multiprefix (passes 1+2).
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

// merge is pass 3 on the caller's goroutine: the exclusive scan across
// chunks per label, leaving each chunk's bucket slot holding its
// offset and red holding the total reductions.
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

// apply is pass 4: add each chunk's offsets onto its local prefix
// sums. Chunk 0's offsets are the identity, so worker 0 idles.
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

// chunkLocalPass runs one chunk's local serial multiprefix over
// [lo, hi) in cancelStride segments, polling the guard between
// segments. multi == nil means reduce-only. Each segment runs the
// monomorphic kernel when available, otherwise the generic loop with
// fault-hook events. Returns the (possibly grown) first-touch order.
func chunkLocalPass[T any](fast FastOp, op Op[T], values []T, labels []int, multi, buckets []T, seen []bool, order []int, lo, hi int, hook FaultHook, g *chunkGuard, ctx context.Context) []int {
	for seg := lo; seg < hi; seg += cancelStride {
		if g.interrupted(ctx) {
			return order
		}
		end := seg + cancelStride
		if end > hi {
			end = hi
		}
		if o, ok := tryChunkLocal(fast, op.Identity, values, labels, multi, buckets, seen, order, seg, end); ok {
			order = o
			continue
		}
		for i := seg; i < end; i++ {
			l := labels[i]
			if !seen[l] {
				seen[l] = true
				buckets[l] = op.Identity
				order = append(order, l)
			}
			if multi != nil {
				multi[i] = buckets[l]
			}
			if hook != nil {
				hook.Combine(PhaseChunkLocal, i)
			}
			buckets[l] = op.Combine(buckets[l], values[i])
		}
	}
	return order
}

// chunkWorkers resolves the worker count for the chunked engines:
// the shared par.ClampWorkers normalization, further capped by n (one
// element per chunk at minimum).
func chunkWorkers(workers, n int) int {
	workers = par.ClampWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
