package backend

import (
	"runtime/debug"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// chunkExec is the planned chunked engine: the one-shot engine's
// pooled chunkRunner with the partitions, the per-chunk touched-label
// lists (first-touch order, normally discovered per run with O(m) seen
// bookkeeping) and the worker team all built at plan time. Every
// evaluation is one team round over the batch body; a single Run is a
// batch of one.
type chunkExec[T any] struct {
	p *Plan[T]
	teamState[T]
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red       []T
	workers   int
	buckets   [][]T
	touched   [][]int
	batchBody func(w int, bar *par.Barrier)
}

// newChunkExec precomputes the chunked decomposition: the worker count
// and partition bounds the one-shot engine would use, each chunk's
// touched-label list, per-chunk bucket storage, and the persistent
// worker team.
//
//mp:locked
func newChunkExec[T any](p *Plan[T]) *chunkExec[T] {
	e := &chunkExec[T]{
		p:       p,
		multi:   make([]T, p.n),
		red:     make([]T, p.m),
		workers: core.ChunkWorkers(p.cfg.Workers, p.n),
	}
	e.buckets = make([][]T, e.workers)
	e.touched = make([][]int, e.workers)
	seen := make([]bool, p.m)
	for w := 0; w < e.workers; w++ {
		lo, hi := par.Range(p.n, e.workers, w)
		var order []int
		for i := lo; i < hi; i++ {
			if l := p.labels[i]; !seen[l] {
				seen[l] = true
				order = append(order, l)
			}
		}
		for _, l := range order {
			seen[l] = false
		}
		e.buckets[w] = make([]T, p.m)
		e.touched[w] = order
	}
	e.batchBody = e.chunkBatch
	e.startTeam(p, e.workers)
	return e
}

//mp:locked
func (e *chunkExec[T]) run(values []T) (core.Result[T], error) {
	if err := e.eval(values, e.multi, true); err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: e.multi, Reductions: e.red}, nil
}

//mp:locked
func (e *chunkExec[T]) reduce(values []T) ([]T, error) {
	if err := e.eval(values, e.red, false); err != nil {
		return nil, err
	}
	return e.red, nil
}

// eval evaluates one value vector into dst as a batch of one.
//
//mp:locked
func (e *chunkExec[T]) eval(values, dst []T, withMulti bool) error {
	e.oneDst[0], e.oneSrc[0] = dst, values
	defer func() { e.oneDst[0], e.oneSrc[0] = nil, nil }()
	return e.runBatch(e.p, e.batchBody, e.oneDst[:], e.oneSrc[:], withMulti)
}

//mp:locked
func (e *chunkExec[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	return e.runBatch(e.p, e.batchBody, dsts, srcs, withMulti)
}

// mergeInto is pass 3 (exclusive scan across chunks per label) into
// the reduction target, leaving each chunk's bucket slot holding its
// offset.
//
//mp:locked
func (e *chunkExec[T]) mergeInto(red []T) {
	p := e.p
	hook := p.cfg.FaultHook
	core.FillIdentity(p.op, red)
	for w := 0; w < e.workers; w++ {
		bw := e.buckets[w]
		for _, l := range e.touched[w] {
			offset := red[l]
			if hook != nil {
				hook.Combine(core.PhaseChunkMerge, l)
			}
			red[l] = p.op.Combine(red[l], bw[l])
			bw[l] = offset
		}
	}
}

// chunkBatch is the team body: for each vector, the local bucket pass
// (passes 1+2: reset this chunk's touched buckets to the identity, then
// the bucket pass in CancelStride segments), a barrier, the merge on
// worker 0, a barrier, and the offset apply (pass 4; chunk 0's offsets
// are the identity, so worker 0 idles) — two arrivals per vector, no
// gate round between vectors. No barrier is needed between one
// vector's apply and the next vector's local pass: apply only reads
// this worker's own offset buckets and writes its own range of the
// previous destination, while the next local pass resets only this
// worker's own buckets.
//
//mp:locked
func (e *chunkExec[T]) chunkBatch(w int, inner *par.Barrier) {
	p := e.p
	total := 2 * len(e.batchSrcs)
	done := 0
	phase := core.PhaseChunkLocal
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.fail(&core.EnginePanicError{
				Engine: "plan/chunked", Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	buckets := e.buckets[w]
	lo, hi := par.Range(p.n, e.workers, w)
	for k := range e.batchSrcs {
		values := e.batchSrcs[k]
		multi, red := e.batchDsts[k], e.red
		if !e.runMulti {
			multi, red = nil, e.batchDsts[k]
		}
		phase = core.PhaseChunkLocal
		if !p.guard.interrupted(p.cfg.Ctx) {
			for _, l := range e.touched[w] {
				buckets[l] = p.op.Identity
			}
			for seg := lo; seg < hi; seg += core.CancelStride {
				if p.guard.interrupted(p.cfg.Ctx) {
					break
				}
				end := min(seg+core.CancelStride, hi)
				core.BucketRange(p.op, e.fast, core.PhaseChunkLocal, values, p.labels, multi, buckets, seg, end, p.cfg.FaultHook)
			}
		}
		inner.Await()
		done++
		if w == 0 {
			phase = core.PhaseChunkMerge
			if !p.guard.interrupted(p.cfg.Ctx) {
				e.mergeInto(red)
			}
		}
		inner.Await()
		done++
		if e.runMulti && w > 0 && !p.guard.interrupted(p.cfg.Ctx) {
			phase = core.PhaseChunkApply
			for seg := lo; seg < hi; seg += core.CancelStride {
				if p.guard.interrupted(p.cfg.Ctx) {
					break
				}
				end := min(seg+core.CancelStride, hi)
				core.ApplyRange(p.op, e.fast, p.labels, buckets, multi, seg, end, p.cfg.FaultHook)
			}
		}
	}
}
