package backend

import (
	"fmt"
	"math"
	"runtime/debug"
	"unsafe"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// This file is the planned sort-scan executor, behind both the
// "sorted" and the "sharded" backends. Everything value-independent
// happens at plan time: the element range is split into S contiguous
// shards, each counting-sorted into its own run-bound row over one
// shared full-length permutation (the stable sort keeps same-label
// elements in vector order, so a scan along a run applies exactly the
// combines of Definition 1 in the serial order). With one shard a run
// is the serial fused segmented scan. With S > 1 it is the scale-out
// decomposition, combining the per-shard per-label carry vectors in
// ⌈log₂S⌉ synchronous exclusive-prefix exchange rounds
// (core.ShardedExchangeRound):
//
//   pass 1    every shard scans its own runs reduce-only into its row
//             of the flat S×m carry buffer.
//   exchange  ⌈log₂S⌉ Hillis–Steele rounds over the rows through the
//             team's inner barrier; afterwards row s holds the
//             inclusive fold of shards 0..s.
//   finish    each shard writes the reductions of the labels it owns
//             on the consistent-hash ring (row S−1), and for multi
//             runs rescans its runs seeded from row s−1 — its
//             exclusive carry-in (core.ShardedTiledSeedScan).
//
// The round structure is what a distributed deployment would run over
// a real interconnect; ShardStats exposes the round count and modeled
// bytes per round so the simulated-network mode can price it.

// maxShards caps the shard count: beyond this the per-label carry
// buffers (2·S·m elements) dominate and the exchange stops modeling
// anything a single host would run.
const maxShards = 256

// sortExec is the sort-scan executor.
type sortExec[T any] struct {
	p *Plan[T]
	teamState[T]
	// name attributes engine panics: "plan/sorted" or "plan/sharded".
	name string
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red    []T
	perm   []int32   // shared full-length permutation, sorted per shard
	start  [][]int32 // per-shard run-bound rows, each len m+1
	rounds int       // ⌈log₂S⌉
	ring   *hashRing // label → owning shard
	owned  [][]int32 // ring-owned labels per shard
	// carryA and carryB are the flat S×m ping-pong buffers of the
	// exchange (carryA is pass 1's target).
	carryA, carryB []T
	// tiles is the plan-time cache-tiling of each shard's scan. Nil
	// when tiling doesn't apply (generic element type, non-fast op, or
	// n within one tile window); runs with a FaultHook skip it at
	// dispatch since fast demotes to FastNone.
	tiles     []core.TileSegs
	stop      func() bool // prebound guard poll for the kernels
	batchBody func(w int, bar *par.Barrier)
	// measured counts the exchange rounds the last evaluation actually
	// executed (the simnet round assertion's ground truth).
	//mp:guarded-by mu
	measured int // written by worker 0 between barriers
}

// newSortExec builds the plan-time structures: S = Config.Shards,
// else the chunked engine's worker count; the per-shard counting-sort
// rows, the placement ring, the tiling, and for S > 1 the owned-label
// lists, the carry buffers and the worker team (one worker per shard).
//
//mp:locked
func newSortExec[T any](p *Plan[T], name string) (*sortExec[T], error) {
	if p.n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: n=%d exceeds the sort-scan engine's %d-element limit", core.ErrBadInput, p.n, math.MaxInt32)
	}
	s := p.cfg.Shards
	if s <= 0 {
		s = core.ChunkWorkers(p.cfg.Workers, p.n)
	}
	s = min(s, maxShards, max(p.n, 1))
	e := &sortExec[T]{
		p:      p,
		name:   name,
		multi:  make([]T, p.n),
		red:    make([]T, p.m),
		perm:   make([]int32, p.n),
		start:  make([][]int32, s),
		rounds: core.ShardedRounds(s),
		ring:   newHashRing(s),
	}
	for w := 0; w < s; w++ {
		lo, hi := par.Range(p.n, s, w)
		e.start[w] = make([]int32, p.m+1)
		core.BuildShardedIndexInto(e.perm, e.start[w], p.labels, lo, hi)
	}
	e.stop = func() bool { return p.guard.interrupted(p.cfg.Ctx) }
	e.buildTiles()
	if s > 1 {
		e.owned = e.ring.ownedLabels(p.m)
		e.carryA = make([]T, s*p.m)
		e.carryB = make([]T, s*p.m)
		e.batchBody = e.shardedBatch
		e.startTeam(p, s)
	}
	return e, nil
}

// buildTiles builds the plan-time cache-tiling of each shard's scan
// when the tiled kernels apply: a monomorphic element type, an op with
// a fast kernel, and an input large enough to span multiple tile
// windows. The tiling is value-independent, so like the counting sort
// it happens once per plan.
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
	// below). Each shard sees ~n/S elements over the same m labels, so
	// the gate scales with the shard count. Test-sized windows (256
	// elements) keep the floor at one element, so forced-tiling tests
	// and fuzzing exercise every segment shape.
	s := len(e.start)
	if minSeg := window / 256; minSeg > 1 && p.n < p.m*minSeg*s {
		return
	}
	e.tiles = make([]core.TileSegs, s)
	for w := range e.tiles {
		lo, hi := par.Range(p.n, s, w)
		e.tiles[w] = core.BuildTileSegs(e.perm, e.start[w], lo, hi, window)
	}
}

// Tiled reports whether the plan runs the cache-tiled sorted kernels —
// plan metadata for tests and the benchmark harness.
func (p *Plan[T]) Tiled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exec.(*sortExec[T])
	return ok && e.tiles != nil
}

// tiledRun reports whether this run dispatches to the tiled kernels:
// the plan built tiles and the run's fast kind survived (no FaultHook).
func (e *sortExec[T]) tiledRun(fast core.FastOp) bool {
	return e.tiles != nil && core.FastScans[T](fast)
}

//mp:locked
func (e *sortExec[T]) run(values []T) (core.Result[T], error) {
	if err := e.eval(values, true); err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: e.multi, Reductions: e.red}, nil
}

//mp:locked
func (e *sortExec[T]) reduce(values []T) ([]T, error) {
	if err := e.eval(values, false); err != nil {
		return nil, err
	}
	return e.red, nil
}

// eval evaluates one value vector into e.multi (when withMulti) and
// e.red, as a batch of one.
//
//mp:locked
func (e *sortExec[T]) eval(values []T, withMulti bool) error {
	dst := e.red
	if withMulti {
		dst = e.multi
	}
	e.oneDst[0], e.oneSrc[0] = dst, values
	defer func() { e.oneDst[0], e.oneSrc[0] = nil, nil }()
	return e.batch(e.oneDst[:], e.oneSrc[:], withMulti)
}

// scan is the fused scan over shard w's row: prefixes into multi (nil
// for reduce-only), run totals into red. It is tiled when the plan
// built tiles and the run's fast kind allows.
//
//mp:locked
func (e *sortExec[T]) scan(w int, fast core.FastOp, values, multi, red []T, stop func() bool) bool {
	p := e.p
	if e.tiledRun(fast) {
		return core.SortedTiledScanLabels(p.op, fast, values, e.perm, e.start[w], multi, red, &e.tiles[w], stop)
	}
	return core.SortedScanLabels(p.op, fast, values, e.perm, e.start[w], multi, red, 0, p.m, p.cfg.FaultHook, stop)
}

// batch is the fused batch: one fused scan per vector over the one row
// on a single shard, one team round for the whole batch otherwise.
//
//mp:locked
//mp:polls
func (e *sortExec[T]) batch(dsts, srcs [][]T, withMulti bool) (err error) {
	p := e.p
	e.measured = 0
	if e.team != nil {
		return e.runBatch(p, e.batchBody, dsts, srcs, withMulti)
	}
	defer recoverPlanPanic(e.name, &err)
	fast := p.op.FastKind(p.cfg.FaultHook)
	var stop func() bool
	if p.cfg.Ctx != nil {
		p.guard.reset()
		stop = e.stop
	}
	for k := range srcs {
		// Poll between vectors as well: a short vector never exhausts
		// the in-scan stride credit, so without this check a cancelled
		// batch of small vectors would run to completion.
		if stop != nil && stop() {
			return p.guard.first()
		}
		multi, red := dsts[k], e.red
		if !withMulti {
			multi, red = nil, dsts[k]
		}
		if !e.scan(0, fast, srcs[k], multi, red, stop) {
			return p.guard.first()
		}
	}
	return nil
}

// finish is the post-exchange step for one worker: extract the owned
// labels' reductions from the last row of final, and for multi runs
// rescan the shard's runs seeded from the shard's exclusive carry-in
// (final row w−1; identity for shard 0). The worker's row of the
// spare ping-pong buffer serves as the seed/scratch row — the last
// exchange round's barrier ordered every read of it, so clobbering it
// here is race-free, and each worker touches only its own row (EREW).
//
//mp:locked
func (e *sortExec[T]) finish(w int, final, spare, values, multi, red []T, withMulti bool) {
	p := e.p
	last := (len(e.start) - 1) * p.m
	for _, l := range e.owned[w] {
		red[l] = final[last+int(l)]
	}
	if !withMulti {
		return
	}
	seed := spare[w*p.m : (w+1)*p.m]
	if w == 0 {
		core.FillIdentity(p.op, seed)
	} else {
		copy(seed, final[(w-1)*p.m:w*p.m])
	}
	if e.tiledRun(e.fast) {
		core.ShardedTiledSeedScan(p.op, e.fast, values, e.perm, e.start[w], multi, seed, &e.tiles[w], p.cfg.FaultHook, e.stop)
		return
	}
	core.ShardedSeedScan(p.op, e.fast, values, e.perm, e.start[w], multi, seed, p.cfg.FaultHook, e.stop)
}

// shardedBatch is the team body: per vector, pass 1, a barrier, one
// barrier-separated exchange round per distance, the finish step, and
// — between vectors — one more barrier isolating this vector's finish
// (which reads the final carry rows) from the next vector's pass 1
// (which rewrites buffer A; with an even round count the final buffer
// IS A). That is 2+⌈log₂S⌉ inner arrivals per vector less the trailing
// one, drained on abort so the team survives. A single Run is a batch
// of one.
//
//mp:locked
func (e *sortExec[T]) shardedBatch(w int, inner *par.Barrier) {
	p := e.p
	total := (2+e.rounds)*len(e.batchSrcs) - 1
	done := 0
	phase := core.PhaseShardedScan
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.fail(&core.EnginePanicError{
				Engine: e.name, Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	for k := range e.batchSrcs {
		values := e.batchSrcs[k]
		multi, red := e.batchDsts[k], e.red
		if !e.runMulti {
			multi, red = nil, e.batchDsts[k]
		}
		if k > 0 {
			inner.Await()
			done++
		}
		// Pass 1: scan the shard's runs reduce-only into its row of the
		// carry buffer. The scan covers all m labels, so labels absent
		// from the shard get the identity — exactly the carry vector a
		// remote node would send.
		phase = core.PhaseShardedScan
		if !p.guard.interrupted(p.cfg.Ctx) {
			e.scan(w, e.fast, values, nil, e.carryA[w*p.m:(w+1)*p.m], e.stop)
		}
		inner.Await()
		done++
		phase = core.PhaseShardedExchange
		cur, next := e.carryA, e.carryB
		for r := 0; r < e.rounds; r++ {
			if !p.guard.interrupted(p.cfg.Ctx) {
				core.ShardedExchangeRound(p.op, e.fast, cur, next, p.m, w, 1<<r, p.cfg.FaultHook)
				if w == 0 {
					e.measured++
				}
			}
			inner.Await()
			done++
			cur, next = next, cur
		}
		if !p.guard.interrupted(p.cfg.Ctx) {
			phase = core.PhaseShardedApply
			e.finish(w, cur, next, values, multi, red, e.runMulti)
		}
	}
}

// ShardStats is the sort-scan plan's exchange geometry: the static
// round count and modeled per-round traffic, plus the rounds the last
// evaluation actually executed (MeasuredRounds — equal to Rounds for a
// completed Run, Rounds×k for a k-vector batch, possibly fewer after an
// interrupt). BytesPerRound models each round's interconnect traffic as
// every participating shard reading one remote row of m elements.
type ShardStats struct {
	Shards         int
	Rounds         int
	MeasuredRounds int
	BytesPerRound  []int
	TotalBytes     int
}

// SimNs prices the carry exchange on a simulated interconnect with the
// given per-round latency (ns) and per-shard bandwidth (bytes/ns, i.e.
// GB/s): rounds·latency plus each round's widest single-shard transfer
// (rows move in parallel, so a round is as slow as one row).
func (s ShardStats) SimNs(latencyNs, bytesPerNs float64) float64 {
	ns := float64(s.Rounds) * latencyNs
	if bytesPerNs <= 0 {
		return ns
	}
	for r, b := range s.BytesPerRound {
		readers := s.Shards - 1<<r
		if readers <= 0 {
			continue
		}
		// One remote row per reading shard, pulled in parallel: the
		// round is as slow as a single row transfer.
		ns += float64(b) / float64(readers) / bytesPerNs
	}
	return ns
}

// ShardStats returns the exchange geometry of a plan on the sort-scan
// executor (the "sorted" and "sharded" backends), or ok=false for
// plans running a different engine.
func (p *Plan[T]) ShardStats() (ShardStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exec.(*sortExec[T])
	if !ok {
		return ShardStats{}, false
	}
	s := len(e.start)
	elem := int(unsafe.Sizeof(*new(T)))
	st := ShardStats{Shards: s, Rounds: e.rounds, MeasuredRounds: e.measured}
	for r := 0; r < e.rounds; r++ {
		b := core.ShardedRoundBytes(s, p.m, elem, r)
		st.BytesPerRound = append(st.BytesPerRound, b)
		st.TotalBytes += b
	}
	return st, true
}

// ShardOf returns the shard owning a label's reduction on the
// placement ring, or ok=false for plans off the sort-scan executor or
// out-of-range labels.
func (p *Plan[T]) ShardOf(label int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.exec.(*sortExec[T])
	if !ok || label < 0 || label >= p.m {
		return 0, false
	}
	return e.ring.Lookup(label), true
}
