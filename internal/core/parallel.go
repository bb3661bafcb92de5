package core

import (
	"context"
	"sync"
	"sync/atomic"

	"multiprefix/internal/par"
)

// Parallel computes the multiprefix operation with the paper's
// four-phase algorithm executed by a pool of goroutines in
// barrier-synchronous steps — the closest Go analogue of the
// p = sqrt(n) processor PRAM execution.
//
// The CRCW-ARB arbitrary concurrent write of the SPINETREE phase is
// modeled with atomic stores: when several goroutines store different
// element indices into the same bucket's spine slot, the one whose
// store lands last wins, which is a legal ARB outcome. Every read of a
// concurrently-written slot happens on the far side of a barrier, so
// the implementation is race-detector clean. All other phases write
// distinct addresses within each step (Theorems 1–2 of the paper), so
// they need no synchronization beyond the barriers.
//
// Each pardo step in the paper touches one row or column (sqrt(n)
// elements); running one goroutine per element would drown in barrier
// costs, so each step's elements are partitioned across cfg.Workers
// goroutines instead — the standard processor-virtualization argument
// (each worker simulates sqrt(n)/W virtual processors per step).
//
// The execution is hardened: a panic in Op.Combine (or injected via
// cfg.FaultHook) inside any worker is recovered into a typed
// *EnginePanicError, the panicking worker leaves the barrier so its
// siblings drain instead of deadlocking, and the engine returns the
// error with no goroutine leaked. cfg.Ctx, when set, cancels the run
// at the next barrier boundary.
//
// Parallel runs Buffers.Parallel on a pooled Buffers whose worker
// goroutines exit with each round; the result belongs to the caller.
func Parallel[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).Parallel)
}

// ParallelReduce is the multireduce counterpart of Parallel, hardened
// the same way.
func ParallelReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).ParallelReduce)
}

// Parallel is Parallel reusing b's arena, result storage and worker
// team. Every worker of a failed round (panic, cancellation) has left
// the team's inner barrier, so the team is closed and the next call
// starts a new one.
//
//mp:hotpath
func (b *Buffers[T]) Parallel(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return b.parallel(op, values, labels, m, cfg, true)
}

// ParallelReduce is ParallelReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ParallelReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	res, err := b.parallel(op, values, labels, m, cfg, false)
	return res.Reductions, err
}

// parallel runs the SPINETREE, ROWSUMS and SPINESUMS phases as one
// round, the reduce on the caller's goroutine, and the MULTISUMS phase
// as a second round when wantMulti asks for the prefixes.
//
//mp:hotpath
func (b *Buffers[T]) parallel(op Op[T], values []T, labels []int, m int, cfg Config, wantMulti bool) (res Result[T], err error) {
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
	var multi []T
	if wantMulti {
		multi = b.growMulti(len(values))
	}
	red := b.growRed(m)
	workers := parWorkers(cfg.Workers, a.grid.P)
	if b.runner == nil {
		b.runner = newPooledParRunner[T]()
	}
	r := b.runner
	r.reset(a, op, values, labels, multi, workers, cfg)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	b.round(workers, r.mainBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, r.hook, red)
	if !wantMulti {
		return Result[T]{Reductions: red}, nil
	}
	phase = PhaseMultisums
	b.round(workers, r.multiBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
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

// arbLockStripes is the stripe count for the MutexArb ablation.
const arbLockStripes = 64

type parRunner[T any] struct {
	a       *arena[T]
	op      Op[T]
	values  []T
	labels  []int
	multi   []T
	workers int
	test    SpineTest
	fast    FastOp
	locks   []sync.Mutex // nil => atomic-store arbitration
	ctx     context.Context
	hook    FaultHook

	// Failure channel between workers: the first panic or cancellation
	// sets stop; every worker polls it at step boundaries and drains.
	stop   atomic.Bool
	failMu sync.Mutex
	err    error // first failure, under failMu

	// Prebound team-round bodies (see teamMain/teamMulti), created once
	// per runner so the pooled path allocates no closures per call.
	mainBody  func(w int, bar *par.Barrier)
	multiBody func(w int, bar *par.Barrier)
}

// fail records the run's first failure and signals every worker to
// drain at its next step boundary.
func (r *parRunner[T]) fail(err error) {
	r.failMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.failMu.Unlock()
	r.stop.Store(true)
}

// failure returns the first recorded failure, if any.
func (r *parRunner[T]) failure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.err
}

// bail polls for failure and cancellation at a step boundary. A true
// return means the run is over: bail has already dropped the barrier
// and the worker must return immediately. Worker 0 is the one that
// polls the context, so a cancelled run fails within one barrier
// boundary without every worker paying the ctx.Err() cost.
func (r *parRunner[T]) bail(bar *par.Barrier, w int) bool {
	if w == 0 && r.ctx != nil && !r.stop.Load() {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
		}
	}
	if !r.stop.Load() {
		return false
	}
	bar.Drop()
	return true
}

// sync is one barrier arrival, preceded by the fault hook's barrier
// event (stall/panic injection point).
func (r *parRunner[T]) sync(bar *par.Barrier, phase string, w int) {
	if r.hook != nil {
		r.hook.Barrier(phase, w)
	}
	bar.Await() //mp:nolint every loop runs under teamMain/teamMulti, whose defer Drops the barrier on panic
}

// combine applies the operator, reporting the element to the fault
// hook first.
func (r *parRunner[T]) combine(phase string, i int, x, y T) T {
	if r.hook != nil {
		r.hook.Combine(phase, i)
	}
	return r.op.Combine(x, y)
}

// spinetreeLoop runs the SPINETREE phase: for each row, top to bottom,
// a gather half-step (concurrent read of bucket spines) and a scatter
// half-step (ARB concurrent write), separated by barriers so that PRAM
// read-before-write semantics hold within the step. Like every phase
// loop it returns true when it bailed, having dropped the barrier.
func (r *parRunner[T]) spinetreeLoop(w int, bar *par.Barrier) bool {
	a, m := r.a, r.a.m
	for row := a.grid.Rows - 1; row >= 0; row-- {
		if r.bail(bar, w) {
			return true
		}
		lo, hi := a.grid.Row(row)
		wlo, whi := par.Range(hi-lo, r.workers, w)
		for i := lo + wlo; i < lo+whi; i++ {
			a.spine[m+i] = atomic.LoadInt32(&a.spine[r.labels[i]])
		}
		r.sync(bar, PhaseSpinetree, w)
		if r.locks == nil {
			for i := lo + wlo; i < lo+whi; i++ {
				atomic.StoreInt32(&a.spine[r.labels[i]], int32(m+i))
			}
		} else {
			for i := lo + wlo; i < lo+whi; i++ {
				l := r.labels[i]
				mu := &r.locks[l%arbLockStripes]
				mu.Lock()
				a.spine[l] = int32(m + i)
				mu.Unlock()
			}
		}
		r.sync(bar, PhaseSpinetree, w)
	}
	return false
}

// rowsumsLoop runs the ROWSUMS phase column by column. Within a
// column all parents are distinct (Corollary 1), so plain writes
// suffice; the barrier between columns orders sibling updates so that
// a parent's rowsum accumulates in vector order even for
// non-commutative ops.
func (r *parRunner[T]) rowsumsLoop(w int, bar *par.Barrier) bool {
	a, m := r.a, r.a.m
	for c := 0; c < a.grid.P; c++ {
		if r.bail(bar, w) {
			return true
		}
		colLen := a.grid.ColumnLen(c)
		wlo, whi := par.Range(colLen, r.workers, w)
		if !a.tryRowsumsCol(r.fast, r.values, c, wlo, whi) {
			for k := wlo; k < whi; k++ {
				i := c + k*a.grid.P
				p := a.spine[m+i]
				a.rowsum[p] = r.combine(PhaseRowsums, i, a.rowsum[p], r.values[i])
				if a.isSpine != nil {
					a.isSpine[p] = true
				}
			}
		}
		r.sync(bar, PhaseRowsums, w)
	}
	return false
}

// spinesumsLoop runs the SPINESUMS phase row by row, bottom to top.
// At most one spine element per class per row and distinct parents
// across classes make each step EREW.
func (r *parRunner[T]) spinesumsLoop(w int, bar *par.Barrier) bool {
	a, m := r.a, r.a.m
	for row := 0; row < a.grid.Rows; row++ {
		if r.bail(bar, w) {
			return true
		}
		lo, hi := a.grid.Row(row)
		wlo, whi := par.Range(hi-lo, r.workers, w)
		if !a.trySpinesumsRow(r.fast, r.op, r.test, lo+wlo, lo+whi) {
			for i := lo + wlo; i < lo+whi; i++ {
				ok := a.spineElement(m+i, r.test)
				if r.hook != nil {
					ok = r.hook.SpineTest(i, ok)
				}
				if !ok {
					continue
				}
				p := a.spine[m+i]
				a.spinesum[p] = r.combine(PhaseSpinesums, i, a.spinesum[m+i], a.rowsum[m+i])
			}
		}
		r.sync(bar, PhaseSpinesums, w)
	}
	return false
}

// newPooledParRunner builds an empty runner whose round bodies are
// bound once; reset rebinds the per-call state. Each Buffers keeps one
// of these, so a steady-state call allocates neither closures nor the
// runner.
func newPooledParRunner[T any]() *parRunner[T] {
	r := &parRunner[T]{}
	r.mainBody = r.teamMain
	r.multiBody = r.teamMulti
	return r
}

// reset rebinds the runner to one run's inputs. workers must equal the
// round's worker count.
func (r *parRunner[T]) reset(a *arena[T], op Op[T], values []T, labels []int, multi []T, workers int, cfg Config) {
	r.a, r.op, r.values, r.labels, r.multi = a, op, values, labels, multi
	r.workers = workers
	r.test = cfg.SpineTest
	r.ctx = cfg.Ctx
	r.hook = cfg.FaultHook
	r.fast = op.fastKind(cfg.FaultHook)
	if cfg.MutexArb && r.locks == nil {
		r.locks = make([]sync.Mutex, arbLockStripes)
	} else if !cfg.MutexArb {
		r.locks = nil
	}
	r.stop.Store(false)
	r.err = nil
}

// teamMain is one round covering the SPINETREE, ROWSUMS and SPINESUMS
// phases back to back: within each phase the loop structure (and thus
// the barrier arrival count) is identical on every worker, and each
// phase's final row/column barrier orders its writes before the next
// phase's reads, so no extra synchronization is needed between phases.
//
// A failed round must take every worker out of the barrier exactly
// once: a worker that panics Drops in the deferred recover, and one
// that sees the failure Drops in bail and returns at once. A worker
// that finishes a phase while a sibling is failing goes on into the
// next phase, whose first bail takes it out. Returning between phases
// without a Drop would leave siblings already in the next phase
// waiting for it forever; dropping again in a later phase would shrink
// the party count below the workers still running.
func (r *parRunner[T]) teamMain(w int, bar *par.Barrier) {
	phase := PhaseSpinetree
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(newEnginePanic("parallel", phase, w, rec))
			bar.Drop()
		}
	}()
	if r.spinetreeLoop(w, bar) {
		return
	}
	phase = PhaseRowsums
	if r.rowsumsLoop(w, bar) {
		return
	}
	phase = PhaseSpinesums
	r.spinesumsLoop(w, bar)
}

// teamMulti is the second round: the MULTISUMS phase, run after the
// caller has taken the reductions off the arena. It runs column by
// column; same EREW argument as ROWSUMS.
func (r *parRunner[T]) teamMulti(w int, bar *par.Barrier) {
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(newEnginePanic("parallel", PhaseMultisums, w, rec))
			bar.Drop()
		}
	}()
	r.multisumsLoop(w, bar)
}

func (r *parRunner[T]) multisumsLoop(w int, bar *par.Barrier) bool {
	a, m := r.a, r.a.m
	for c := 0; c < a.grid.P; c++ {
		if r.bail(bar, w) {
			return true
		}
		colLen := a.grid.ColumnLen(c)
		wlo, whi := par.Range(colLen, r.workers, w)
		if !a.tryMultisumsCol(r.fast, r.values, r.multi, c, wlo, whi) {
			for k := wlo; k < whi; k++ {
				i := c + k*a.grid.P
				p := a.spine[m+i]
				r.multi[i] = a.spinesum[p]
				a.spinesum[p] = r.combine(PhaseMultisums, i, a.spinesum[p], r.values[i])
			}
		}
		r.sync(bar, PhaseMultisums, w)
	}
	return false
}
