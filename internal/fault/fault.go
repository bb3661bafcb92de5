// Package fault provides deterministic, seedable fault injection for
// the multiprefix engines. An *Injector plugs into core.Config.FaultHook
// and fires at exactly the configured engine event — a panic inside a
// combine at a chosen element, a stalled worker in front of a chosen
// barrier, or a spurious spine-test result — so the engines' recovery
// paths (panic isolation, barrier release, cancellation, fallback) are
// exercised by tests rather than merely written.
//
// Injection is by structural position (event kind, phase name, element
// or worker index), not by wall clock or randomness at fire time, so a
// given Injector configuration reproduces the same fault on every run.
// The Seeded constructor derives the target element from a seed with a
// splitmix64 step, giving fuzz-style variety that is still replayable
// from the seed alone.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Event selects which engine hook an injection point listens to.
type Event int

const (
	// EventNone disables the injection point.
	EventNone Event = iota
	// EventCombine fires on Op.Combine applications (FaultHook.Combine).
	EventCombine
	// EventBarrier fires on barrier arrivals (FaultHook.Barrier); the
	// index selects the worker id.
	EventBarrier
	// EventSpineTest fires on SPINESUMS participation tests
	// (FaultHook.SpineTest).
	EventSpineTest
)

// Injector is a deterministic implementation of core.FaultHook.
// Construct with New — which disables every injection point (index
// sentinels at -1) — then configure the exported fields before handing
// it to an engine.
//
// # Concurrency
//
// One Injector may be shared by every worker goroutine of a run — the
// chunked and parallel engines call the hook concurrently from all
// workers — and across concurrent runs (the service's chaos mode). All
// methods are safe for concurrent use: the event counters and the
// stall latch are atomic, and the configuration fields are only read.
// The configuration fields themselves are NOT synchronized: set them
// before handing the Injector to an engine and do not mutate them
// while any run that can see the hook is in flight (that is a data
// race); build a fresh Injector instead. The counters may be read at
// any time, including mid-run.
type Injector struct {
	// PanicEvent/PanicPhase/PanicIndex select where to panic:
	// the event kind, the phase name ("" matches any phase) and the
	// element index — worker id for EventBarrier — (-1 matches any).
	// PanicEvent == EventNone disables the panic injection.
	PanicEvent Event
	PanicPhase string
	PanicIndex int
	// PanicValue is the value to panic with; nil panics with a
	// descriptive string.
	PanicValue any

	// StallPhase/StallWorker/Stall put one worker to sleep for Stall
	// immediately before its first matching barrier arrival — the
	// "slow straggler" fault. StallWorker == -1 disables it.
	StallPhase  string
	StallWorker int
	Stall       time.Duration

	// FlipIndex inverts the spine-test result for element FlipIndex
	// (the "spurious spine-test failure" fault). -1 disables it.
	FlipIndex int

	// Event counters, for asserting that hooks were actually reached.
	Combines  atomic.Int64
	Barriers  atomic.Int64
	Tests     atomic.Int64
	stallOnce atomic.Bool
}

// New returns an Injector with every injection point disabled (all
// index sentinels at -1). Configure the exported fields before handing
// it to an engine.
func New() *Injector {
	return &Injector{PanicIndex: -1, StallWorker: -1, FlipIndex: -1}
}

// Seeded returns an Injector that panics inside one combine of the
// given phase, at an element index derived deterministically from seed
// over [0, n). The same (seed, n, phase) always picks the same element.
func Seeded(seed int64, n int, phase string) *Injector {
	in := New()
	in.PanicEvent = EventCombine
	in.PanicPhase = phase
	if n > 0 {
		in.PanicIndex = int(splitmix64(uint64(seed)) % uint64(n))
	} else {
		in.PanicIndex = 0
	}
	return in
}

// Combine implements core.FaultHook.
func (in *Injector) Combine(phase string, i int) {
	in.Combines.Add(1)
	in.maybePanic(EventCombine, phase, i)
}

// Barrier implements core.FaultHook.
func (in *Injector) Barrier(phase string, worker int) {
	in.Barriers.Add(1)
	if in.Stall > 0 && in.StallWorker == worker &&
		(in.StallPhase == "" || in.StallPhase == phase) &&
		in.stallOnce.CompareAndSwap(false, true) {
		time.Sleep(in.Stall)
	}
	in.maybePanic(EventBarrier, phase, worker)
}

// SpineTest implements core.FaultHook.
func (in *Injector) SpineTest(i int, isSpine bool) bool {
	in.Tests.Add(1)
	in.maybePanic(EventSpineTest, "", i)
	if in.FlipIndex >= 0 && i == in.FlipIndex {
		return !isSpine
	}
	return isSpine
}

func (in *Injector) maybePanic(ev Event, phase string, i int) {
	if in.PanicEvent != ev {
		return
	}
	if in.PanicPhase != "" && in.PanicPhase != phase {
		return
	}
	if in.PanicIndex >= 0 && in.PanicIndex != i {
		return
	}
	v := in.PanicValue
	if v == nil {
		v = fmt.Sprintf("fault: injected panic (event %d, phase %q, index %d)", ev, phase, i)
	}
	panic(v)
}

// splitmix64 is the standard 64-bit mix step — a tiny, dependency-free
// way to turn a seed into a well-spread index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
