package backend

import (
	"fmt"
	"math"

	"multiprefix/internal/core"
)

// This file is the stateful half of Plan (DESIGN.md §14): a plan can
// *bind* a resident value vector and then serve point updates and
// point queries against it far cheaper than re-running the whole
// pipeline. A stable counting sort of the labels, built once at the
// first Bind — the permutation and per-label run bounds — makes a
// per-label prefix a difference of two whole-array prefixes over the
// sorted order, so a single Fenwick tree per plan maintains every
// label at once:
//
//	multi[i]  = prefix(ipos[i]) - prefix(istart[label[i]])
//	red[c]    = prefix(istart[c+1]) - prefix(istart[c])
//
// Update(i, v) is then one O(log n) tree walk, QueryPrefix and
// ReduceLabel two each.
//
// # Maintenance tiers
//
// The Fenwick tier needs an invertible operator whose Fenwick
// association is bit-identical to the serial order:
//
//   - int64 sum: always (two's-complement addition is associative
//     mod 2^64, overflow included);
//   - float64 sum: only inside the exact envelope — every resident
//     value an integer-valued float with |v| <= 2^52/n (see
//     core.FenwickFloat64Bound). The moment a bound or updated value
//     leaves the envelope the plan *drifts*: it permanently (until the
//     next Bind) serves from the full re-run tier, because float64
//     addition is not reassociable and per-operation exactness checks
//     cannot guarantee bit-identity with the serial order.
//   - everything else (max, min, prod, generic ops): non-invertible —
//     updates just dirty the resident vector and queries re-run the
//     plan's own engine, refreshing the snapshot.
//
// A calibrated burst threshold (core.AutoUpdateBurst, derived from
// the PR 8 memory probe) bounds per-update maintenance: once more
// than burst updates arrive between queries, applying each to the
// tree costs more than one rebuild, so the plan marks the tree stale
// (O(1) per further update) and falls back to a full re-run + rebuild
// at the next query.
//
// # Consistency
//
// Every entry point serializes on p.mu like Run/RunBatch, so
// concurrent readers never observe torn state: a query sees either
// the state before an update or after it, never a half-applied
// mutation. The snapshot (snapMulti/snapRed) is copy-on-refresh
// storage separate from the run scratch, so interleaved Run/RunBatch
// traffic on other value vectors does not corrupt resident answers.
// Version() increments on every Bind and Update and is atomic: the
// service layer pins and compares it without taking the evaluation
// lock (see backend.Key for the cache-key-vs-version contract).
//
// The re-run tier executes through the plan's own engine (p.run), so
// per-call contexts, fault hooks and the auto plan's serial fallback
// all keep working; the O(log n) tier performs pure arithmetic and is
// not fault-injectable.

// incMode is a bound plan's maintenance tier, fixed by the operator
// and element type at first Bind.
type incMode uint8

const (
	// incNone: dirty-set + full re-run (non-invertible or generic op).
	incNone incMode = iota
	// incInt64: Fenwick deltas, exact under any association.
	incInt64
	// incFloat64: Fenwick deltas inside the exact envelope, re-run
	// tier after drift.
	incFloat64
)

// ErrNotBound is returned by the stateful entry points (Update,
// QueryPrefix, ReduceLabel, Snapshot) when the plan has no resident
// value vector. It wraps core.ErrBadInput: retrying elsewhere cannot
// help — the caller must Bind first (and must re-Bind after a cache
// eviction closed the plan, which discards resident state).
var ErrNotBound = fmt.Errorf("%w: plan has no resident values (call Bind first)", core.ErrBadInput)

// IncStats is a point-in-time snapshot of a plan's incremental
// counters, for observability (the service's /metrics endpoint).
type IncStats struct {
	// Bound reports whether a resident value vector is installed.
	Bound bool
	// Mode is the effective maintenance tier: "fenwick-int64",
	// "fenwick-float64", or "rerun" (non-invertible op, float drift,
	// or no Fenwick support for the element type).
	Mode string
	// Version is the current state version (see Plan.Version).
	Version uint64
	// Burst is the calibrated update-vs-rerun crossover in effect.
	Burst int
	// Binds counts successful Bind calls.
	Binds uint64
	// Updates counts accepted point updates.
	Updates uint64
	// FenwickUpdates counts updates applied as O(log n) tree deltas.
	FenwickUpdates uint64
	// FenwickQueries counts queries answered from the tree in O(log n).
	FenwickQueries uint64
	// SnapshotQueries counts queries answered O(1) from a clean
	// snapshot (including after a re-run refresh).
	SnapshotQueries uint64
	// Rebuilds counts O(n) Fenwick rebuilds.
	Rebuilds uint64
	// Reruns counts full engine re-runs refreshing the snapshot.
	Reruns uint64
	// Drifts counts transitions out of the float64 exact envelope.
	Drifts uint64
}

// Version reports the plan's state version: it increments on every
// Bind and every Update, and is stable across queries. Reads are
// atomic and lock-free, so the service layer can pin a version and
// detect conflicting mutation without serializing behind evaluations.
// The cache key (backend.Key) deliberately excludes it: versions
// identify mutable state, keys identify construction input.
func (p *Plan[T]) Version() uint64 { return p.version.Load() }

// Bound reports whether the plan holds a resident value vector.
func (p *Plan[T]) Bound() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bound
}

// IncStats returns the incremental counters.
func (p *Plan[T]) IncStats() IncStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.inc
	s.Bound = p.bound
	s.Version = p.version.Load()
	s.Burst = p.burst
	s.Mode = "rerun"
	if !p.fdrift {
		switch p.imode {
		case incInt64:
			s.Mode = "fenwick-int64"
		case incFloat64:
			s.Mode = "fenwick-float64"
		}
	}
	return s
}

// Bind installs values as the plan's resident value vector (copied),
// refreshes the snapshot through the plan's engine and (re)builds the
// Fenwick accumulator. A successful Bind leaves every query O(1); a
// failed one (cancellation, engine fault) leaves the plan unbound.
// Binding replaces any previous resident state and clears float64
// drift.
func (p *Plan[T]) Bind(values []T) error { return p.BindCall(Call{}, values) }

// BindCall is Bind under per-call overrides (the refresh runs on the
// plan's engine, so contexts and fault hooks apply).
func (p *Plan[T]) BindCall(c Call, values []T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.bindLocked(values)
}

//mp:locked
func (p *Plan[T]) bindLocked(values []T) error {
	if err := p.checkRun(values); err != nil {
		return err
	}
	if p.vals == nil {
		p.prepareIncremental()
	}
	copy(p.vals, values)
	p.bound = false
	p.fstale = false
	p.pending = 0
	p.fdrift = false
	if p.imode == incFloat64 {
		for _, v := range any(p.vals).([]float64) {
			if !core.FenwickFloat64Safe(v, p.fbound) {
				p.fdrift = true
				p.inc.Drifts++
				break
			}
		}
	}
	if err := p.refreshLocked(); err != nil {
		p.snapClean = false
		p.version.Add(1)
		return err
	}
	p.bound = true
	p.inc.Binds++
	p.version.Add(1)
	return nil
}

// prepareIncremental is the one-time (first Bind) setup: resident and
// snapshot storage, the maintenance tier, and — for the Fenwick tiers
// — the counting-sort index, its inverse, the tree and the calibrated
// burst.
//
//mp:locked
func (p *Plan[T]) prepareIncremental() {
	p.imode = incModeFor[T](p.op)
	if p.n > math.MaxInt32 {
		p.imode = incNone // counting-sort index is int32-addressed
	}
	p.vals = make([]T, p.n)
	p.snapMulti = make([]T, p.n)
	p.snapRed = make([]T, p.m)
	if p.imode == incNone {
		return
	}
	p.iperm = make([]int32, p.n)
	p.istart = make([]int32, p.m+1)
	core.BuildSortedIndexInto(p.iperm, p.istart, p.labels)
	p.ipos = make([]int32, p.n)
	for k, i := range p.iperm {
		p.ipos[i] = int32(k)
	}
	p.ftree = make([]T, p.n)
	p.fbound = core.FenwickFloat64Bound(p.n)
	p.burst = core.AutoUpdateBurst(p.n, p.cfg)
}

// incModeFor classifies the maintenance tier: Fenwick needs an
// invertible fast sum at a kernel element type.
func incModeFor[T any](op core.Op[T]) incMode {
	if op.Fast != core.FastAdd {
		return incNone
	}
	var probe []T
	switch any(probe).(type) {
	case []int64:
		return incInt64
	case []float64:
		return incFloat64
	}
	return incNone
}

// Update replaces the resident value at index i. O(log n) on the
// Fenwick tiers (O(1) beyond the burst threshold), O(1) dirty-mark on
// the re-run tier. Every accepted update bumps Version.
//
//mp:hotpath
func (p *Plan[T]) Update(i int, v T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.update(i, v)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) update(i int, v T) error {
	if err := p.checkBound(); err != nil {
		return err
	}
	if err := p.checkElem(i); err != nil {
		return err
	}
	p.inc.Updates++
	p.snapClean = false
	switch vals := any(p.vals).(type) {
	case []int64:
		nv := any(v).(int64)
		old := vals[i]
		vals[i] = nv
		if p.imode == incInt64 {
			p.applyInt64(i, nv-old)
		}
	case []float64:
		nv := any(v).(float64)
		old := vals[i]
		vals[i] = nv
		if p.imode == incFloat64 {
			if !p.fdrift && !core.FenwickFloat64Safe(nv, p.fbound) {
				p.fdrift = true
				p.inc.Drifts++
			}
			if !p.fdrift {
				p.applyFloat64(i, nv-old)
			}
		}
	default:
		p.vals[i] = v
	}
	p.version.Add(1)
	return nil
}

// applyInt64 folds one delta into the tree, or trips the burst
// fallback once per-update maintenance stops paying for itself.
//
//mp:hotpath
//mp:locked
func (p *Plan[T]) applyInt64(i int, delta int64) {
	if p.fstale {
		return
	}
	if p.pending >= p.burst {
		p.fstale = true
		return
	}
	core.FenwickAddInt64(any(p.ftree).([]int64), int(p.ipos[i]), delta)
	p.pending++
	p.inc.FenwickUpdates++
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) applyFloat64(i int, delta float64) {
	if p.fstale {
		return
	}
	if p.pending >= p.burst {
		p.fstale = true
		return
	}
	core.FenwickAddFloat64(any(p.ftree).([]float64), int(p.ipos[i]), delta)
	p.pending++
	p.inc.FenwickUpdates++
}

// QueryPrefix returns the multiprefix value at index i over the
// resident values — the combine of all earlier same-label values —
// bit-identical to a full recompute. O(1) from a clean snapshot,
// O(log n) from the Fenwick tree, O(n) refresh otherwise.
//
//mp:hotpath
func (p *Plan[T]) QueryPrefix(i int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queryPrefix(i)
}

// QueryPrefixCall is QueryPrefix under per-call overrides (they bind
// when the query falls back to the engine re-run tier).
//
//mp:hotpath
func (p *Plan[T]) QueryPrefixCall(c Call, i int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.queryPrefix(i)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) queryPrefix(i int) (T, error) {
	var zero T
	if err := p.checkBound(); err != nil {
		return zero, err
	}
	if err := p.checkElem(i); err != nil {
		return zero, err
	}
	if p.snapClean {
		p.inc.SnapshotQueries++
		return p.snapMulti[i], nil
	}
	if p.fenwickLive() {
		p.pending = 0
		p.inc.FenwickQueries++
		c := p.labels[i]
		switch tr := any(p.ftree).(type) {
		case []int64:
			lo := core.FenwickPrefixInt64(tr, int(p.istart[c]))
			hi := core.FenwickPrefixInt64(tr, int(p.ipos[i]))
			return any(hi - lo).(T), nil
		case []float64:
			lo := core.FenwickPrefixFloat64(tr, int(p.istart[c]))
			hi := core.FenwickPrefixFloat64(tr, int(p.ipos[i]))
			return any(hi - lo).(T), nil
		}
	}
	if err := p.refreshLocked(); err != nil {
		return zero, err
	}
	p.inc.SnapshotQueries++
	return p.snapMulti[i], nil
}

// ReduceLabel returns label c's reduction (the combine of every
// resident value with that label), with the same cost tiers as
// QueryPrefix.
//
//mp:hotpath
func (p *Plan[T]) ReduceLabel(c int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reduceLabel(c)
}

// ReduceLabelCall is ReduceLabel under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceLabelCall(call Call, c int) (T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(call))
	return p.reduceLabel(c)
}

//mp:hotpath
//mp:locked
func (p *Plan[T]) reduceLabel(c int) (T, error) {
	var zero T
	if err := p.checkBound(); err != nil {
		return zero, err
	}
	if err := p.checkLabel(c); err != nil {
		return zero, err
	}
	if p.snapClean {
		p.inc.SnapshotQueries++
		return p.snapRed[c], nil
	}
	if p.fenwickLive() {
		p.pending = 0
		p.inc.FenwickQueries++
		switch tr := any(p.ftree).(type) {
		case []int64:
			lo := core.FenwickPrefixInt64(tr, int(p.istart[c]))
			hi := core.FenwickPrefixInt64(tr, int(p.istart[c+1]))
			return any(hi - lo).(T), nil
		case []float64:
			lo := core.FenwickPrefixFloat64(tr, int(p.istart[c]))
			hi := core.FenwickPrefixFloat64(tr, int(p.istart[c+1]))
			return any(hi - lo).(T), nil
		}
	}
	if err := p.refreshLocked(); err != nil {
		return zero, err
	}
	p.inc.SnapshotQueries++
	return p.snapRed[c], nil
}

// Snapshot refreshes (if needed) and copies the full multiprefix
// state over the resident values into caller storage: multi (len n)
// and red (len m); either may be nil to skip. It returns the state
// version the copy corresponds to.
func (p *Plan[T]) Snapshot(multi, red []T) (uint64, error) {
	return p.SnapshotCall(Call{}, multi, red)
}

// SnapshotCall is Snapshot under per-call overrides.
func (p *Plan[T]) SnapshotCall(c Call, multi, red []T) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	if err := p.checkBound(); err != nil {
		return 0, err
	}
	if multi != nil && len(multi) != p.n {
		return 0, fmt.Errorf("%w: snapshot multi has %d slots for %d elements", core.ErrBadInput, len(multi), p.n)
	}
	if red != nil && len(red) != p.m {
		return 0, fmt.Errorf("%w: snapshot red has %d slots for %d labels", core.ErrBadInput, len(red), p.m)
	}
	if !p.snapClean {
		if err := p.refreshLocked(); err != nil {
			return 0, err
		}
	}
	copy(multi, p.snapMulti)
	copy(red, p.snapRed)
	return p.version.Load(), nil
}

// fenwickLive reports whether the O(log n) tier can answer: a Fenwick
// tier that has not drifted and whose tree still tracks the values.
//
//mp:locked
func (p *Plan[T]) fenwickLive() bool {
	return p.imode != incNone && !p.fdrift && !p.fstale
}

// refreshLocked is the full re-run tier: evaluate the resident values
// through the plan's own engine (contexts, hooks and the auto plan's
// serial fallback all apply), copy the results into the snapshot
// storage, and bring the Fenwick tree back in sync.
//
//mp:locked
func (p *Plan[T]) refreshLocked() error {
	res, err := p.run(p.vals)
	if err != nil {
		return err
	}
	copy(p.snapMulti, res.Multi)
	copy(p.snapRed, res.Reductions)
	p.snapClean = true
	p.inc.Reruns++
	if p.imode != incNone && !p.fdrift {
		p.rebuildLocked()
	}
	return nil
}

// rebuildLocked regathers the tree from the resident values — the
// O(n) amortization target of the burst threshold.
//
//mp:locked
func (p *Plan[T]) rebuildLocked() {
	switch tr := any(p.ftree).(type) {
	case []int64:
		core.FenwickGatherBuildInt64(tr, any(p.vals).([]int64), p.iperm)
	case []float64:
		core.FenwickGatherBuildFloat64(tr, any(p.vals).([]float64), p.iperm)
	}
	p.fstale = false
	p.pending = 0
	p.inc.Rebuilds++
}

//mp:locked
func (p *Plan[T]) checkBound() error {
	if p.closed {
		return fmt.Errorf("%w: call on a closed Plan", core.ErrBadInput)
	}
	if !p.bound {
		return ErrNotBound
	}
	return nil
}

//mp:locked
func (p *Plan[T]) checkElem(i int) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: index %d out of range [0, %d)", core.ErrBadInput, i, p.n)
	}
	return nil
}

//mp:locked
func (p *Plan[T]) checkLabel(c int) error {
	if c < 0 || c >= p.m {
		return fmt.Errorf("%w: label %d out of range [0, %d)", core.ErrBadInput, c, p.m)
	}
	return nil
}
