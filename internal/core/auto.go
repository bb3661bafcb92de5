package core

import (
	"context"
	"errors"
	"sync"

	"multiprefix/internal/par"
)

// AutoCalibration holds the crossover the Auto engine picks engines
// with, plus the memory profile the incremental plans size their
// update burst from. The zero value is usable (SerialMax = 0 means
// Serial never wins on size alone — so prefer DefaultCalibration or
// explicit positive values).
type AutoCalibration struct {
	// SerialMax is the largest n for which the serial engine is
	// preferred over the chunked decomposition: below it, goroutine
	// coordination costs dominate the work. It is a constant (2^20),
	// not a measurement, so Auto's choice never depends on timing.
	SerialMax int
	// Probe is the measured memory profile (see MemProbe) the
	// incremental update burst derives from. The process-wide
	// calibration fills it from a one-time measurement; explicit
	// Config.AutoCal values may supply a synthetic probe or leave it
	// nil. Engine selection does not read it.
	Probe *MemProbe
	// TileBytes is deprecated and always 0: nothing in the library
	// reads it. It remains only so that the benchmark's run record,
	// which reports tile_bytes, compiles until that field is dropped
	// from the record.
	TileBytes int
	// UpdateBurst, when positive, pins the incremental plans'
	// update-vs-rerun crossover to a constant (the MP_AUTOCAL=updburst
	// override); 0 derives it per shape from the probe's cost model
	// (MemProbe.UpdateBurst) or the folklore n/(4·log2 n) fallback.
	UpdateBurst int
}

// AutoUpdateBurst resolves an incremental plan's update-vs-rerun
// crossover for an n-element problem under cfg: an explicit
// Config.AutoCal / MP_AUTOCAL pin, else the measured probe's cost
// model (one rebuild vs. log-depth tree walks), else the folklore
// n/(4·log2 n). The burst only re-orders maintenance work, never
// results, so plans may consult it freely.
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
// Auto engine uses for default-config calls: the 2^20 serial crossover
// and the one-time measured probe (nil under MP_AUTOCAL=noprobe), with
// MP_AUTOCAL field overrides applied. The returned value is a copy;
// Probe, when non-nil, is shared and must be treated as read-only.
func DefaultCalibration() AutoCalibration {
	return defaultAutoCal()
}

// engineKind is the Auto engine's selection.
type engineKind uint8

const (
	kindSerial engineKind = iota
	kindChunked
)

func (k engineKind) String() string {
	if k == kindChunked {
		return "chunked"
	}
	return "serial"
}

var (
	autoOnce sync.Once
	autoCal  AutoCalibration
)

// defaultAutoCal returns the process-wide calibration, resolving it on
// first use.
func defaultAutoCal() AutoCalibration {
	autoOnce.Do(func() { autoCal = calibrate() })
	return autoCal
}

// calibrate builds the process-wide calibration: the constant serial
// crossover, the measured memory probe for the incremental update
// burst, and MP_AUTOCAL field overrides on top so CI can pin any of
// the knobs. Nothing here is timed for engine selection.
func calibrate() AutoCalibration {
	return applyAutoCalEnv(AutoCalibration{SerialMax: 1 << 20, Probe: defaultMemProbe()})
}

// autoPick selects the engine for a problem shape: Chunked only when
// more than one worker is available, n exceeds the serial crossover,
// and labels do not outnumber elements (m > n: the dense O(m)
// per-worker bucket storage and merge dominate any parallel gain);
// Serial otherwise. It is a pure function of its arguments.
func autoPick(n, m, workers int, cal AutoCalibration) engineKind {
	if workers <= 1 || n <= cal.SerialMax || m > n {
		return kindSerial
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

// AutoEngine returns the adaptive engine: it picks Serial or Chunked
// per call from (n, m, Workers) and the serial crossover, and an
// internal failure in the chunked engine degrades to the serial
// reference instead of failing the request (invalid input and
// cancellation are still returned as-is), as Fallback does.
func AutoEngine[T any](cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return Auto(op, values, labels, m, cfg)
	}
}

// Auto runs the adaptive engine once: Buffers.Auto on a pooled
// Buffers, with the result handed to the caller.
func Auto[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).Auto)
}

// AutoReduce is the multireduce counterpart of Auto, with the same
// engine selection and fallback-to-serial rules.
func AutoReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return oneShot(op, values, labels, m, cfg, (*Buffers[T]).AutoReduce)
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

// serialCtxIn is Serial (or SerialReduce, without wantMulti) on b's
// storage, honoring cfg.Ctx: with a context the single bucket pass
// runs in cancelStride segments polling at each boundary (the serial
// pass carries no cross-segment state beyond the buckets, so
// segmenting is exact), matching the chunked branch's mid-run
// cancellation promptness.
func (b *Buffers[T]) serialCtxIn(op Op[T], values []T, labels []int, m int, cfg Config, wantMulti bool) (res Result[T], err error) {
	if cfg.Ctx == nil && wantMulti {
		return b.Serial(op, values, labels, m)
	}
	if cfg.Ctx == nil {
		red, err := b.SerialReduce(op, values, labels, m)
		return Result[T]{Reductions: red}, err
	}
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	var multi []T
	if wantMulti {
		multi = b.growMulti(len(values))
	}
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if err := serialSegments(op, values, labels, multi, red, cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// Auto is the adaptive engine on pooled state: the shape picks the
// chunked or the serial branch, and a chunked failure other than bad
// input or cancellation is re-run on the serial reference.
func (b *Buffers[T]) Auto(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return b.auto(op, values, labels, m, cfg, true)
}

// AutoReduce is the multireduce counterpart of Buffers.Auto.
func (b *Buffers[T]) AutoReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	res, err := b.auto(op, values, labels, m, cfg, false)
	return res.Reductions, err
}

func (b *Buffers[T]) auto(op Op[T], values []T, labels []int, m int, cfg Config, wantMulti bool) (Result[T], error) {
	var res Result[T]
	var err error
	if autoKind(len(values), m, cfg) == kindChunked {
		res, err = b.chunked(op, values, labels, m, cfg, wantMulti)
	} else {
		res, err = b.serialCtxIn(op, values, labels, m, cfg, wantMulti)
	}
	if err == nil || errors.Is(err, ErrBadInput) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return res, err
	}
	return b.serialCtxIn(op, values, labels, m, Config{}, wantMulti)
}
