package main

import (
	"fmt"
	"time"
)

// workload is one benchmark input set and the op loop that drives it.
type workload interface {
	// gen builds the seeded inputs and the serial-reference answers.
	// With setupOnly it builds only what setup needs. Not timed.
	gen(seed int64, setupOnly bool) error
	// setup is everything between a fresh start and the first timed
	// op: Auto's calibration, plan builds, server start and warm-up.
	setup() error
	// run drives ops for at least d and at least minOps ops (or until
	// maxWindow), recording spans into tr when it is non-nil.
	run(d time.Duration, minOps int, tr *tracer) (runResult, error)
	// layers replays the layer calls of this workload on its own
	// inputs and adds the per-layer metrics; tr holds the spans of
	// the traced run, streamBps the measured stream bandwidth that
	// rooflines are taken against.
	layers(tr *tracer, streamBps float64, out metrics) error
	// decisions reports the automatic choices this workload's shape
	// got, after setup.
	decisions() map[string]string
	close()
}

var workloadNames = []string{"svc_json", "plan_stream", "plan_update", "nas_rank"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "svc_json":
		return &svcWorkload{}, nil
	case "plan_stream":
		return &streamWorkload{}, nil
	case "plan_update":
		return &updateWorkload{}, nil
	case "nas_rank":
		return &nasWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// p99Ops is the op count an untraced run must reach so that at least
// minBeyond latency samples lie above its p99.
const p99Ops = 100 * minBeyond

// maxWindow caps a run that has not reached minOps by its deadline, so
// the command still ends well inside its time limit.
const maxWindow = 120 * time.Second

// runResult is what one op loop measured.
type runResult struct {
	lat   []time.Duration
	tally tally
	wall  time.Duration
	// verify is the time a single-caller loop spent checking answers;
	// it is taken out of the throughput denominator. Concurrent
	// loops check on the client goroutines and leave it 0.
	verify time.Duration
}

func (r runResult) opsPerSec() float64 {
	busy := r.wall - r.verify
	return float64(r.tally.byClass[okOp]) / busy.Seconds()
}

// serialLoop drives a single-caller op loop until both d has passed
// and minOps ops are done, or maxWindow ran out. step performs op i
// and returns its latency, outcome class, and the time spent checking
// its answer.
func serialLoop(d time.Duration, minOps int, step func(i int64) (time.Duration, int, time.Duration)) runResult {
	var r runResult
	start := time.Now()
	for i := int64(0); ; i++ {
		el := time.Since(start)
		if (el >= d && len(r.lat) >= minOps) || el >= maxWindow {
			break
		}
		lat, class, ver := step(i)
		r.lat = append(r.lat, lat)
		r.tally.add(class)
		r.verify += ver
	}
	r.wall = time.Since(start)
	return r
}

// metrics maps metric names to values with units.
type metrics map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }
