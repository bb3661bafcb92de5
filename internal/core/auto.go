package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"multiprefix/internal/par"
)

// AutoCalibration holds the crossover points the Auto engine picks
// engines with. The zero value is usable (Serial for everything up to
// SerialMax = 0 means Serial never wins — so prefer the measured
// defaults or explicit positive values).
type AutoCalibration struct {
	// SerialMax is the largest n for which the serial engine is
	// preferred over any parallel decomposition: below it, goroutine
	// coordination costs dominate the work.
	SerialMax int
	// ParallelOverChunked prefers the barrier-synchronous Parallel
	// engine over Chunked for inputs above SerialMax. Chunked wins on
	// every machine we have measured (far fewer synchronization
	// points), but the probe keeps the choice honest.
	ParallelOverChunked bool
	// Probe is the measured memory profile (see MemProbe) the tile
	// budget and the incremental update burst derive from. The
	// process-wide calibration fills it from a one-time measurement;
	// explicit Config.AutoCal values may supply a synthetic probe or
	// leave it nil.
	Probe *MemProbe
	// TileBytes is the sorted engine's per-tile cache budget in bytes;
	// 0 means DefaultTileBytes. The calibration derives it from the
	// probe's random-update ladder.
	TileBytes int
	// UpdateBurst, when positive, pins the incremental plans'
	// update-vs-rerun crossover to a constant (the MP_AUTOCAL=updburst
	// override); 0 derives it per shape from the probe's cost model
	// (MemProbe.UpdateBurst) or the folklore n/(4·log2 n) fallback.
	UpdateBurst int
}

// AutoTileBytes resolves the sorted engine's per-tile budget for cfg:
// an explicit Config.AutoCal override, else the process calibration's
// derived value — the measured probe's ladder knee with any MP_AUTOCAL
// override applied on top — else DefaultTileBytes. Resolving the
// process calibration is a one-time measurement (the probe is skipped
// under MP_AUTOCAL=noprobe); the budget only re-orders memory traffic,
// never results, so plans may consult it freely.
func AutoTileBytes(cfg Config) int {
	if cal := cfg.AutoCal; cal != nil {
		if cal.TileBytes > 0 {
			return cal.TileBytes
		}
		if cal.Probe != nil && cal.Probe.TileBytes > 0 {
			return cal.Probe.TileBytes
		}
		return DefaultTileBytes
	}
	if cal := defaultAutoCal(); cal.TileBytes > 0 {
		return cal.TileBytes
	}
	return DefaultTileBytes
}

// AutoUpdateBurst resolves an incremental plan's update-vs-rerun
// crossover for an n-element problem under cfg: an explicit
// Config.AutoCal / MP_AUTOCAL pin, else the measured probe's cost
// model (one rebuild vs. log-depth tree walks), else the folklore
// n/(4·log2 n). The burst only re-orders maintenance work, never
// results, so plans may consult it freely — the mirror of
// AutoTileBytes for the update path.
func AutoUpdateBurst(n int, cfg Config) int {
	cal := cfg.AutoCal
	if cal == nil {
		c := defaultAutoCal()
		cal = &c
	}
	if cal.UpdateBurst > 0 {
		return cal.UpdateBurst
	}
	if cal.Probe != nil {
		return cal.Probe.UpdateBurst(n)
	}
	return fallbackUpdateBurst(n)
}

// DefaultCalibration returns the resolved process-wide calibration the
// Auto engine uses for default-config calls: the one-time measured
// probe and derived tile budget (or the timed fallbacks under
// MP_AUTOCAL=noprobe) with MP_AUTOCAL field overrides applied. The
// returned value is a copy; Probe, when non-nil, is shared and must be
// treated as read-only.
func DefaultCalibration() AutoCalibration {
	return defaultAutoCal()
}

// engineKind is the Auto engine's selection.
type engineKind uint8

const (
	kindSerial engineKind = iota
	kindChunked
	kindParallel
)

func (k engineKind) String() string {
	switch k {
	case kindChunked:
		return "chunked"
	case kindParallel:
		return "parallel"
	default:
		return "serial"
	}
}

var (
	autoOnce sync.Once
	autoCal  AutoCalibration
)

// defaultAutoCal returns the process-wide calibration, measuring it on
// first use (a few milliseconds, once).
func defaultAutoCal() AutoCalibration {
	autoOnce.Do(func() { autoCal = calibrate() })
	return autoCal
}

// calibrate times Serial against Chunked (and Parallel) on synthetic
// int64-sum workloads of growing size to locate the serial/parallel
// crossover — the approach of Träff's tuned MPI_Exscan: pick the
// algorithm variant per problem shape, from measurements, not faith.
// The measured memory probe (memprobe.go) supplies the tile budget,
// and MP_AUTOCAL field overrides are applied last so CI can pin any of
// the knobs.
func calibrate() AutoCalibration {
	cal := AutoCalibration{SerialMax: 1 << 20}
	cal.Probe = defaultMemProbe()
	if cal.Probe != nil {
		cal.TileBytes = cal.Probe.TileBytes
	}
	if par.DefaultWorkers() <= 1 {
		// One usable CPU: a parallel decomposition cannot win, and the
		// Workers gate in autoPick sends default-config calls to Serial
		// anyway, so skip the probe.
		return applyAutoCalEnv(cal)
	}
	const m = 512
	sizes := []int{1 << 13, 1 << 15, 1 << 17}
	var values []int64
	var labels []int
	fill := func(n int) {
		values = make([]int64, n)
		labels = make([]int, n)
		for i := range values {
			values[i] = int64(i&1023) - 512
			labels[i] = int(uint32(i*2654435761) % m)
		}
	}
	found := false
	for _, n := range sizes {
		fill(n)
		ts := bestOf(3, func() { _, _ = Serial(AddInt64, values, labels, m) })
		tc := bestOf(3, func() { _, _ = Chunked(AddInt64, values, labels, m, Config{}) })
		if tc < ts {
			cal.SerialMax = n / 2
			found = true
			break
		}
	}
	if found {
		n := sizes[len(sizes)-1]
		fill(n)
		tc := bestOf(3, func() { _, _ = Chunked(AddInt64, values, labels, m, Config{}) })
		tp := bestOf(3, func() { _, _ = Parallel(AddInt64, values, labels, m, Config{}) })
		cal.ParallelOverChunked = tp < tc
	}
	return applyAutoCalEnv(cal)
}

// bestOf returns the fastest of reps timed runs of f.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// autoPick selects the engine for a problem shape. Serial wins when
// only one worker is available, when n is below the calibrated
// crossover, or when labels outnumber elements (m > n: the dense O(m)
// per-worker bucket storage and merge dominate any parallel gain).
func autoPick(n, m, workers int, cal AutoCalibration) engineKind {
	if workers <= 1 || n <= cal.SerialMax || m > n {
		return kindSerial
	}
	if cal.ParallelOverChunked {
		return kindParallel
	}
	return kindChunked
}

// autoKind resolves the calibration (Config override or process-wide
// measurement) and picks the engine for one call.
func autoKind(n, m int, cfg Config) engineKind {
	cal := cfg.AutoCal
	if cal == nil {
		c := defaultAutoCal()
		cal = &c
	}
	return autoPick(n, m, par.ClampWorkers(cfg.Workers), *cal)
}

// AutoChoice reports which engine Auto would run for a problem shape
// under cfg — exposed for tests, the CLI's verbose mode and capacity
// planning.
func AutoChoice(n, m int, cfg Config) string {
	return autoKind(n, m, cfg).String()
}

// AutoPlanChoice reports which engine an auto Plan builds for a
// problem shape under cfg: the same choice as AutoChoice, resolved
// once at plan time.
func AutoPlanChoice(n, m int, cfg Config) string {
	return AutoChoice(n, m, cfg)
}

// AutoEngine returns the adaptive engine: it picks
// Serial/Chunked/Parallel per call from (n, m, Workers) and the
// calibrated crossover points, wrapped in the Fallback machinery so an
// internal failure in a parallel engine degrades to the serial
// reference instead of failing the request (invalid input and
// cancellation are still returned as-is).
func AutoEngine[T any](cfg Config) Engine[T] {
	inner := func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		switch autoKind(len(values), m, cfg) {
		case kindParallel:
			return Parallel(op, values, labels, m, cfg)
		case kindChunked:
			return Chunked(op, values, labels, m, cfg)
		default:
			return serialCtx(op, values, labels, m, cfg)
		}
	}
	return Fallback(inner, nil)
}

// Auto runs the multiprefix operation through AutoEngine.
func Auto[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return AutoEngine[T](cfg)(op, values, labels, m)
}

// AutoReduce is the multireduce counterpart of Auto, with the same
// engine selection and fallback-to-serial rules.
func AutoReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	var red []T
	var err error
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		red, err = ParallelReduce(op, values, labels, m, cfg)
	case kindChunked:
		red, err = ChunkedReduce(op, values, labels, m, cfg)
	default:
		red, err = serialReduceCtx(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return SerialReduce(op, values, labels, m)
}

// serialCtx is Serial honoring cfg.Ctx: with a context the single
// bucket pass runs in cancelStride segments polling at each boundary
// (the serial pass carries no cross-segment state beyond the buckets,
// so segmenting is exact), matching the parallel branches' mid-run
// cancellation promptness.
func serialCtx[T any](op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if cfg.Ctx == nil {
		return Serial(op, values, labels, m)
	}
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := make([]T, len(values))
	buckets := make([]T, m)
	fillIdentity(buckets, op.Identity)
	if err := serialSegments(op, values, labels, multi, buckets, cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: buckets}, nil
}

// serialReduceCtx is SerialReduce under the same segmented
// cancellation polling as serialCtx.
func serialReduceCtx[T any](op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if cfg.Ctx == nil {
		return SerialReduce(op, values, labels, m)
	}
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	buckets := make([]T, m)
	fillIdentity(buckets, op.Identity)
	if err := serialSegments(op, values, labels, nil, buckets, cfg.Ctx); err != nil {
		return nil, err
	}
	return buckets, nil
}

// serialSegments runs the serial bucket pass over values in
// cancelStride segments, polling ctx at each boundary. multi may be
// nil for reduce-only.
func serialSegments[T any](op Op[T], values []T, labels []int, multi []T, buckets []T, ctx context.Context) error {
	n := len(values)
	for lo := 0; lo < n || lo == 0; lo += cancelStride {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		hi := min(lo+cancelStride, n)
		var seg []T
		if multi != nil {
			seg = multi[lo:hi]
		}
		if !tryBucketLoop(op.Fast, values[lo:hi], labels[lo:hi], seg, buckets) {
			if multi != nil {
				for i := lo; i < hi; i++ {
					l := labels[i]
					multi[i] = buckets[l]
					buckets[l] = op.Combine(buckets[l], values[i])
				}
			} else {
				for i := lo; i < hi; i++ {
					l := labels[i]
					buckets[l] = op.Combine(buckets[l], values[i])
				}
			}
		}
		if hi == n {
			break
		}
	}
	return nil
}

// serialCtxIn is the pooled counterpart of serialCtx, drawing multi
// and the bucket array from b.
func (b *Buffers[T]) serialCtxIn(op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if cfg.Ctx == nil {
		return b.Serial(op, values, labels, m)
	}
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if err := serialSegments(op, values, labels, multi, red, cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// serialReduceCtxIn is the pooled counterpart of serialReduceCtx.
func (b *Buffers[T]) serialReduceCtxIn(op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if cfg.Ctx == nil {
		return b.SerialReduce(op, values, labels, m)
	}
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	red = b.growRed(m)
	fillIdentity(red, op.Identity)
	if err := serialSegments(op, values, labels, nil, red, cfg.Ctx); err != nil {
		return nil, err
	}
	return red, nil
}

// Auto is the adaptive engine on pooled state: the same per-call
// selection and serial degradation as the package-level Auto, with
// every branch drawing storage from b.
func (b *Buffers[T]) Auto(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	var res Result[T]
	var err error
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		res, err = b.Parallel(op, values, labels, m, cfg)
	case kindChunked:
		res, err = b.Chunked(op, values, labels, m, cfg)
	default:
		res, err = b.serialCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return res, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Result[T]{}, err
	}
	return b.Serial(op, values, labels, m)
}

// AutoReduce is the multireduce counterpart of Buffers.Auto.
func (b *Buffers[T]) AutoReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	var red []T
	var err error
	switch autoKind(len(values), m, cfg) {
	case kindParallel:
		red, err = b.ParallelReduce(op, values, labels, m, cfg)
	case kindChunked:
		red, err = b.ChunkedReduce(op, values, labels, m, cfg)
	default:
		red, err = b.serialReduceCtxIn(op, values, labels, m, cfg)
	}
	if err == nil {
		return red, nil
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return b.SerialReduce(op, values, labels, m)
}
