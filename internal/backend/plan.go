package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
	"multiprefix/internal/pram"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// executor is one engine kind's planned execution: the structures the
// engine built at plan time plus its evaluation bodies. There is one
// implementation per engine kind — serial, chunked (chunked.go),
// buffers (spinetree and parallel), vector and pram. Every method runs
// under the Plan's lock with inputs already validated; run and reduce
// results alias executor-owned storage.
type executor[T any] interface {
	run(values []T) (core.Result[T], error)
	reduce(values []T) ([]T, error)
	// batch evaluates a non-empty batch into the caller's destinations:
	// prefixes when withMulti, reductions otherwise.
	batch(dsts, srcs [][]T, withMulti bool) error
	// close releases the executor's worker team, if any.
	close()
}

// Plan is a prepared multiprefix pipeline over one fixed label
// vector: labels are validated and their structure (class count,
// chunk partitions, per-chunk touched labels, spinetree where the
// engine allows) is computed once at build time, then Run and Reduce
// evaluate any number of value vectors against it. For the portable
// backends a warm Plan performs zero steady-state heap allocations.
//
// # Concurrency
//
// A Plan may be shared between goroutines: every entry point — Run,
// Reduce, RunBatch, ReduceBatch, their Call variants, RunEach,
// ReduceEach and Close — serializes on an internal lock, so
// concurrent calls execute one at a time in some order. This holds
// for every registered backend, including the simulated vector and
// PRAM machines. The guarantee is mutual exclusion, not result
// lifetime: Run and Reduce return slices that alias plan-owned
// storage and are overwritten by the next call on the same Plan, so
// goroutines sharing a Plan must use the batch entry points, which
// write into caller-owned destinations and are therefore safe
// end-to-end (a batch of one is the degenerate form). This is exactly
// how the service layer drives one cached Plan from many requests.
//
// A Plan is also a stateful, versioned resource: Bind installs a
// resident value vector and Update/QueryPrefix/ReduceLabel maintain
// and query it incrementally — O(log n) Fenwick deltas for invertible
// fast sums, dirty-set + full re-run otherwise (see incremental.go).
// The stateful entry points hold the same lock, scalar results are
// returned by value and Snapshot copies into caller storage, so
// mixed Run/Update/Query traffic never observes torn state.
type Plan[T any] struct {
	// mu serializes every public entry point: one evaluation (or
	// Close) at a time per Plan.
	mu sync.Mutex

	backend  string
	fallback bool // auto: degrade to the serial pass on internal failure
	op       core.Op[T]
	// cfg is swapped by per-call overrides and restored on return.
	//mp:guarded-by mu
	cfg     core.Config
	n, m    int
	classes int
	labels  []int

	// exec runs every evaluation; serial is the auto fallback's
	// degradation target, built at the first failure (exec itself on a
	// serial plan).
	exec executor[T]
	//mp:guarded-by mu
	serial *serialExec[T]
	// guard is the shared failure state of one team run.
	guard planGuard

	// incremental (stateful) extension — see incremental.go. Built
	// lazily at the first Bind; serialized by mu like every evaluation.
	//mp:guarded-by mu
	bound bool
	//mp:guarded-by mu
	vals []T // resident value vector (plan-owned copy)
	//mp:guarded-by mu
	snapMulti []T // copy-on-refresh full multiprefix over vals
	//mp:guarded-by mu
	snapRed []T // copy-on-refresh reductions over vals
	//mp:guarded-by mu
	snapClean bool // snapshot matches vals exactly
	//mp:guarded-by mu
	imode incMode // maintenance tier (operator + element type)
	//mp:guarded-by mu
	iperm []int32 // counting-sort permutation
	//mp:guarded-by mu
	istart []int32 // per-label run bounds, len m+1
	//mp:guarded-by mu
	ipos []int32 // inverse permutation: sorted position of element i
	//mp:guarded-by mu
	ftree []T // Fenwick tree over vals in sorted order
	//mp:guarded-by mu
	fstale bool // tree stopped tracking vals (update burst)
	//mp:guarded-by mu
	fdrift bool // float64 left the exact envelope (sticky until Bind)
	//mp:guarded-by mu
	fbound float64 // float64 exact-envelope bound (2^52/n)
	//mp:guarded-by mu
	burst int // calibrated update-vs-rerun crossover
	//mp:guarded-by mu
	pending int // tree deltas applied since the last query/rebuild
	//mp:guarded-by mu
	inc IncStats
	// version counts Bind/Update mutations; atomic so Version() is
	// lock-free (the service pins it without serializing on mu).
	version atomic.Uint64

	//mp:guarded-by mu
	closed bool
}

// planGuard is the shared failure state of one planned team run: first
// panic or cancellation recorded, every worker drains at its next
// stride boundary.
type planGuard struct {
	stop atomic.Bool
	mu   sync.Mutex
	err  error
}

func (g *planGuard) reset() {
	g.stop.Store(false)
	g.mu.Lock()
	g.err = nil
	g.mu.Unlock()
}

func (g *planGuard) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

func (g *planGuard) first() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *planGuard) interrupted(ctx context.Context) bool {
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

// teamState is the worker team of the chunked executor plus the
// per-call hand-off its bodies read: set by the calling goroutine
// before team.Run, cleared after.
type teamState[T any] struct {
	team *par.Team
	//mp:guarded-by mu
	fast core.FastOp
	//mp:guarded-by mu
	runMulti bool
	//mp:guarded-by mu
	batchDsts, batchSrcs [][]T
	// oneDst and oneSrc carry a single Run through the batch path.
	//mp:guarded-by mu
	oneDst, oneSrc [1][]T
}

// startTeam builds the persistent team. A plan dropped without Close
// must not leak the team's parked goroutines.
func (t *teamState[T]) startTeam(p *Plan[T], workers int) {
	team := par.NewTeam(workers)
	t.team = team
	runtime.AddCleanup(p, func(t *par.Team) { t.Close() }, team)
}

func (t *teamState[T]) close() {
	if t.team != nil {
		t.team.Close()
		t.team = nil
	}
}

// runBatch drives one team round of body for the whole batch.
//
//mp:locked
func (t *teamState[T]) runBatch(p *Plan[T], body func(w int, bar *par.Barrier), dsts, srcs [][]T, withMulti bool) error {
	t.batchDsts, t.batchSrcs = dsts, srcs
	t.runMulti = withMulti
	t.fast = p.op.FastKind(p.cfg.FaultHook)
	p.guard.reset()
	defer func() { t.batchDsts, t.batchSrcs = nil, nil }()
	t.team.Run(body)
	if err := p.guard.first(); err != nil {
		return err
	}
	return ctxDone(p.cfg)
}

// Plan builds a reusable pipeline for this backend over the given
// labels. The label vector is copied; later mutation of the caller's
// slice does not affect the plan.
func (b impl[T]) Plan(op core.Op[T], labels []int, m int, cfg core.Config) (*Plan[T], error) {
	if err := core.ValidatePlan(op, labels, m); err != nil {
		return nil, err
	}
	p := &Plan[T]{
		backend: b.name,
		op:      op,
		cfg:     cfg,
		n:       len(labels),
		m:       m,
		classes: core.CountClasses(labels, m),
		labels:  append([]int(nil), labels...),
	}
	k := b.k
	if k == kindAuto {
		// Resolve the adaptive choice once, at plan time: the problem
		// shape is fixed for the plan's lifetime, so per-run
		// re-selection would always reach the same answer. The
		// fallback-to-serial degradation of the one-shot Auto engine
		// is preserved per run.
		p.fallback = true
		k = kindSerial
		if core.AutoPlanChoice(p.n, m, cfg) == "chunked" {
			k = kindChunked
		}
	}
	exec, err := p.newExecutor(k)
	if err != nil {
		return nil, err
	}
	p.exec = exec
	return p, nil
}

// newExecutor builds the executor of engine kind k. The simulated
// machines assume at least one element; an empty plan degenerates to
// the (trivially equivalent) serial pass after their capability
// checks.
//
//mp:locked
func (p *Plan[T]) newExecutor(k kind) (executor[T], error) {
	switch k {
	case kindChunked:
		return newChunkExec(p), nil
	case kindSpinetree, kindParallel:
		return &bufExec[T]{p: p, buf: new(core.Buffers[T]), spinetree: k == kindSpinetree}, nil
	case kindVector:
		e, err := newVecExec(p)
		if err != nil || p.n > 0 {
			return e, err
		}
	case kindPram:
		if err := pramCheck(p.backend, p.op); err != nil {
			return nil, err
		}
		if p.n > 0 {
			return pramExec[T]{p}, nil
		}
	}
	return newSerialExec(p), nil
}

// newVecExec builds the vecmp.Plan — the one backend with true
// spine-structure reuse: the spinetree depends only on the labels, so
// it is built once here and every Run pays only the evaluation
// phases.
func newVecExec[T any](p *Plan[T]) (executor[T], error) {
	var probe []T
	switch any(probe).(type) {
	case []int64:
		return bindVecExec[int64](p)
	case []float64:
		return bindVecExec[float64](p)
	case []int32:
		return bindVecExec[int32](p)
	}
	return nil, errElemType[T](p.backend)
}

// vecExec evaluates a vecmp.Plan at the machine element type E (== T).
type vecExec[E vector.Elem, T any] struct {
	vp         *vecmp.Plan[E]
	multi, red []E
}

// bindVecExec builds the vecmp.Plan at the machine element type E.
//
//mp:locked
func bindVecExec[E vector.Elem, T any](p *Plan[T]) (executor[T], error) {
	eop, ok := any(p.op).(core.Op[E])
	if !ok {
		return nil, errElemType[T](p.backend)
	}
	l32, err := labels32(p.labels, p.m)
	if err != nil {
		return nil, err
	}
	if p.n == 0 {
		return nil, nil // degenerates to the serial pass
	}
	vp, err := vecmp.NewPlan(vector.NewDefault(), eop, l32, p.m, vcfg(p.cfg))
	if err != nil {
		return nil, err
	}
	return &vecExec[E, T]{vp: vp, multi: make([]E, p.n), red: make([]E, p.m)}, nil
}

func (e *vecExec[E, T]) run(values []T) (core.Result[T], error) {
	if err := e.vp.MultiprefixInto(any(values).([]E), e.multi, e.red); err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: any(e.multi).([]T), Reductions: any(e.red).([]T)}, nil
}

func (e *vecExec[E, T]) reduce(values []T) ([]T, error) {
	if err := e.vp.ReduceInto(any(values).([]E), e.red); err != nil {
		return nil, err
	}
	return any(e.red).([]T), nil
}

// batch passes the batch slices through by assertion: T == E
// concretely, so [][]T's dynamic type is [][]E — no per-vector
// conversion.
func (e *vecExec[E, T]) batch(dsts, srcs [][]T, withMulti bool) error {
	if withMulti {
		return e.vp.MultiprefixBatch(any(dsts).([][]E), any(srcs).([][]E), e.red)
	}
	return e.vp.ReduceBatch(any(dsts).([][]E), any(srcs).([][]E))
}

func (e *vecExec[E, T]) close() {}

// Backend reports the registry name the plan was opened under.
func (p *Plan[T]) Backend() string { return p.backend }

// N reports the element count the plan was built for.
func (p *Plan[T]) N() int { return p.n }

// M reports the label-space size.
func (p *Plan[T]) M() int { return p.m }

// Classes reports how many distinct labels actually occur — plan-time
// metadata for capacity planning.
func (p *Plan[T]) Classes() int { return p.classes }

// Close releases the plan's worker team promptly. A closed plan
// rejects further runs. Close is optional: a dropped plan's team is
// reclaimed by a GC cleanup. Close waits for an in-flight evaluation
// to finish.
func (p *Plan[T]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.exec.close()
}

//mp:locked
func (p *Plan[T]) checkRun(values []T) error {
	if p.closed {
		return fmt.Errorf("%w: Run on a closed Plan", core.ErrBadInput)
	}
	if len(values) != p.n {
		return fmt.Errorf("%w: plan built for %d values, got %d", core.ErrBadInput, p.n, len(values))
	}
	return nil
}

// terminalErr reports whether err must pass through instead of
// degrading to serial: invalid input and cancellation, exactly as the
// one-shot Auto/Fallback machinery classifies them.
func terminalErr(err error) bool {
	return errors.Is(err, core.ErrBadInput) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Terminal reports whether err must not be retried on another
// backend: invalid input (a retry computes the same rejection) and
// cancellation (a retry defeats the cancellation). The service
// layer's degradation ladder uses the same classification as the
// in-plan auto fallback.
func Terminal(err error) bool { return terminalErr(err) }

// Call carries the per-call dynamic knobs of one evaluation on a
// shared Plan. A Plan bakes its Config at build time; a long-lived
// plan (the service layer's cache) instead needs the cancellation
// context and fault hook of the request it is currently serving. A
// nil field inherits the plan Config's value. The overrides are
// honored by every portable backend; the simulated vector machine
// binds its config at plan-build time, so there they only cover the
// serial degradation path.
type Call struct {
	// Ctx overrides Config.Ctx for this call: per-request deadlines
	// and cancellation on a shared plan.
	Ctx context.Context
	// Hook overrides Config.FaultHook for this call — per-request
	// fault injection (the service's chaos mode).
	Hook core.FaultHook
}

// override installs the call's knobs into the plan config and returns
// the previous config for restoring. Callers hold p.mu, so the swap
// is invisible to other goroutines; team worker bodies read p.cfg
// only inside rounds bracketed by the call.
//
//mp:locked
func (p *Plan[T]) override(c Call) core.Config {
	old := p.cfg
	if c.Ctx != nil {
		p.cfg.Ctx = c.Ctx
	}
	if c.Hook != nil {
		p.cfg.FaultHook = c.Hook
	}
	return old
}

// Run evaluates the full multiprefix over values. The Result aliases
// plan-owned storage, valid until the next call on this plan.
//
//mp:hotpath
func (p *Plan[T]) Run(values []T) (core.Result[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.run(values)
}

// RunCall is Run under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) RunCall(c Call, values []T) (core.Result[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.run(values)
}

// run dispatches one full-multiprefix evaluation to the planned
// engine, falling back to serial on non-terminal failure. Callers hold
// p.mu. Every engine polls p.cfg.Ctx at cancel-stride granularity.
//
//mp:locked
//mp:polls
func (p *Plan[T]) run(values []T) (core.Result[T], error) {
	if err := p.checkRun(values); err != nil {
		return core.Result[T]{}, err
	}
	res, err := p.exec.run(values)
	if err == nil {
		return res, nil
	}
	if s := p.degrade(err); s != nil {
		return s.run(values)
	}
	return core.Result[T]{}, err
}

// Reduce evaluates the reductions-only multireduce over values. The
// slice aliases plan-owned storage.
//
//mp:hotpath
func (p *Plan[T]) Reduce(values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reduce(values)
}

// ReduceCall is Reduce under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceCall(c Call, values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.reduce(values)
}

// reduce dispatches one reductions-only evaluation; see run.
//
//mp:locked
//mp:polls
func (p *Plan[T]) reduce(values []T) ([]T, error) {
	if err := p.checkRun(values); err != nil {
		return nil, err
	}
	red, err := p.exec.reduce(values)
	if err == nil {
		return red, nil
	}
	if s := p.degrade(err); s != nil {
		return s.reduce(values)
	}
	return nil, err
}

// degrade returns the serial executor a failed auto-plan evaluation
// retries on, or nil when the error must pass through: the plan is not
// auto, already serial, or the error is terminal. Like the one-shot
// Fallback, the retry is hook-free.
//
//mp:locked
func (p *Plan[T]) degrade(err error) *serialExec[T] {
	if !p.fallback || terminalErr(err) {
		return nil
	}
	if _, ok := p.exec.(*serialExec[T]); ok {
		return nil
	}
	if p.serial == nil {
		p.serial = newSerialExec(p)
	}
	return p.serial
}

// recoverPlanPanic converts a panic on the calling goroutine into the
// typed engine-panic error, matching the one-shot engines' shield.
func recoverPlanPanic(engine string, err *error) {
	if rec := recover(); rec != nil {
		*err = &core.EnginePanicError{Engine: engine, Worker: -1, Value: rec, Stack: debug.Stack()}
	}
}

// serialExec is the planned one-pass bucket algorithm over plan-owned
// storage: no per-run validation, no allocation.
type serialExec[T any] struct {
	p *Plan[T]
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red []T
}

func newSerialExec[T any](p *Plan[T]) *serialExec[T] {
	return &serialExec[T]{p: p, multi: make([]T, p.n), red: make([]T, p.m)}
}

//mp:locked
func (e *serialExec[T]) run(values []T) (core.Result[T], error) {
	if err := e.pass(values, e.multi, e.red); err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: e.multi, Reductions: e.red}, nil
}

//mp:locked
func (e *serialExec[T]) reduce(values []T) ([]T, error) {
	if err := e.pass(values, nil, e.red); err != nil {
		return nil, err
	}
	return e.red, nil
}

// batch runs the pass per vector, writing prefixes (or reductions)
// directly into the caller's destinations.
//
//mp:locked
func (e *serialExec[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	for k := range srcs {
		multi, red := dsts[k], e.red
		if !withMulti {
			multi, red = nil, dsts[k]
		}
		if err := e.pass(srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

func (e *serialExec[T]) close() {}

// pass is one bucket pass over values into multi (nil for reduce-only)
// and red. Like the one-shot serial engine it never observes fault
// hooks; with a context set it runs in CancelStride segments, polling
// at each boundary.
//
//mp:locked
//mp:polls
func (e *serialExec[T]) pass(values, multi, red []T) (err error) {
	defer recoverPlanPanic("plan/serial", &err)
	p := e.p
	core.FillIdentity(p.op, red)
	ctx := p.cfg.Ctx
	if ctx == nil {
		core.BucketRange(p.op, p.op.Fast, "serial", values, p.labels, multi, red, 0, p.n, nil)
		return nil
	}
	for lo := 0; lo < p.n || lo == 0; lo += core.CancelStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+core.CancelStride, p.n)
		core.BucketRange(p.op, p.op.Fast, "serial", values, p.labels, multi, red, lo, hi, nil)
		if hi == p.n {
			break
		}
	}
	return nil
}

// bufExec delegates spinetree and parallel plans to a plan-owned
// pooled core.Buffers: the arena is rebuilt per run — those engines'
// spine structure depends on the row-length choice the arena makes —
// but all storage and the worker team persist.
type bufExec[T any] struct {
	p         *Plan[T]
	buf       *core.Buffers[T]
	spinetree bool
}

//mp:locked
func (e *bufExec[T]) run(values []T) (core.Result[T], error) {
	p := e.p
	if e.spinetree {
		return e.buf.Spinetree(p.op, values, p.labels, p.m, p.cfg)
	}
	return e.buf.Parallel(p.op, values, p.labels, p.m, p.cfg)
}

//mp:locked
func (e *bufExec[T]) reduce(values []T) ([]T, error) {
	p := e.p
	if e.spinetree {
		return e.buf.SpinetreeReduce(p.op, values, p.labels, p.m, p.cfg)
	}
	return e.buf.ParallelReduce(p.op, values, p.labels, p.m, p.cfg)
}

func (e *bufExec[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	return loopBatch(e, dsts, srcs, withMulti)
}

func (e *bufExec[T]) close() {}

// pramExec is per-run simulated PRAM execution. The simulator builds
// its machine per run, so this executor amortizes only validation; it
// exists so study code can drive repeated traffic through the same
// Plan API.
type pramExec[T any] struct{ p *Plan[T] }

//mp:locked
func (e pramExec[T]) run(values []T) (core.Result[T], error) {
	p := e.p
	res, err := pram.RunMultiprefix(par.ClampWorkers(p.cfg.Workers), any(values).([]int64), p.labels, p.m, p.cfg.RowLength, 1)
	if err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: any(res.Multi).([]T), Reductions: any(res.Reductions).([]T)}, nil
}

//mp:locked
func (e pramExec[T]) reduce(values []T) ([]T, error) {
	p := e.p
	res, err := pram.RunMultireduce(par.ClampWorkers(p.cfg.Workers), any(values).([]int64), p.labels, p.m, p.cfg.RowLength, 1)
	if err != nil {
		return nil, err
	}
	return any(res.Reductions).([]T), nil
}

func (e pramExec[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	return loopBatch(e, dsts, srcs, withMulti)
}

func (e pramExec[T]) close() {}

// loopBatch is the unfused batch of the buffers and pram executors:
// one evaluation per vector plus a copy into the caller's storage.
//
//mp:locked
func loopBatch[T any](e executor[T], dsts, srcs [][]T, withMulti bool) error {
	for k := range srcs {
		if withMulti {
			res, err := e.run(srcs[k])
			if err != nil {
				return err
			}
			copy(dsts[k], res.Multi)
			continue
		}
		red, err := e.reduce(srcs[k])
		if err != nil {
			return err
		}
		copy(dsts[k], red)
	}
	return nil
}
