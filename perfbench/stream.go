package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// streamWorkload is the planned, bandwidth-bound engine path: one auto
// plan at n=2^22, m=16, with calls alternating Plan.Run and
// Plan.Reduce over streamVectors value vectors. The server is
// bypassed.
type streamWorkload struct {
	labels []int
	values [][]int64
	want   []core.Result[int64]
	plan   *backend.Plan[int64]
}

func (w *streamWorkload) gen(seed int64, setupOnly bool) error {
	r := rng(seed, 0x5374)
	w.labels = genLabels(r, streamN, streamM)
	if setupOnly {
		return nil
	}
	for range streamVectors {
		v := genValues(r, streamN, 1<<20)
		want, err := core.Serial(core.AddInt64, v, w.labels, streamM)
		if err != nil {
			return err
		}
		w.values = append(w.values, v)
		w.want = append(w.want, want)
	}
	return nil
}

func buildPlan(op core.Op[int64], labels []int, m int) (*backend.Plan[int64], error) {
	be, err := backend.Open[int64]("auto")
	if err != nil {
		return nil, err
	}
	return be.Plan(op, labels, m, core.Config{})
}

func (w *streamWorkload) setup() error {
	core.DefaultCalibration()
	p, err := buildPlan(core.AddInt64, w.labels, streamM)
	w.plan = p
	return err
}

// An op is one Plan.Run followed by one Plan.Reduce on another vector.
// Run writes the n-element multiprefix and takes about 2.7 times as
// long as Reduce, so single calls alternating 50/50 put the median in
// the gap between two latency modes, where it jumps between them from
// run to run; the pair has one mode.
func (w *streamWorkload) vectors(i int64) (run, red int64) {
	return i % streamVectors, (i + 2) % streamVectors
}

// pair performs op i and reports whether both answers matched the
// serial reference. The Run result aliases plan storage that Reduce
// overwrites, so it is checked in between; the returned latency covers
// the two calls only.
func (w *streamWorkload) pair(i int64, tr *tracer) (lat time.Duration, ok bool, err error) {
	vr, vd := w.vectors(i)
	t0 := time.Now()
	res, err := w.plan.Run(w.values[vr])
	t1 := time.Now()
	tr.add("plan.Run", i, 0, t0, t1)
	if err != nil {
		return t1.Sub(t0), false, err
	}
	ok = slices.Equal(res.Multi, w.want[vr].Multi) && slices.Equal(res.Reductions, w.want[vr].Reductions)
	t2 := time.Now()
	red, err := w.plan.Reduce(w.values[vd])
	t3 := time.Now()
	tr.add("plan.Reduce", i, 0, t2, t3)
	lat = t1.Sub(t0) + t3.Sub(t2)
	if err != nil {
		return lat, false, err
	}
	return lat, ok && slices.Equal(red, w.want[vd].Reductions), nil
}

func (w *streamWorkload) run(d time.Duration, minOps int, tr *tracer) (runResult, error) {
	return serialLoop(d, minOps, func(i int64) (time.Duration, int, time.Duration) {
		t0 := time.Now()
		lat, ok, err := w.pair(i, tr)
		switch {
		case err != nil:
			return lat, opError, 0
		case !ok:
			return lat, wrongAnswer, time.Since(t0) - lat
		}
		return lat, okOp, time.Since(t0) - lat
	}), nil
}

// bytes moved per element by one call, computed from the slices the
// call reads and writes: values and the plan's label vector in, the
// multiprefix (Run only) and reductions out.
func streamCallBytes(run bool) float64 {
	b := float64(8*streamN+8*streamN) + 8*streamM
	if run {
		b += 8 * streamN
	}
	return b / streamN
}

func (w *streamWorkload) layers(tr *tracer, streamBps float64, out metrics) error {
	run := medianDur(tr.durations("plan.Run"))
	red := medianDur(tr.durations("plan.Reduce"))
	if run == 0 || red == 0 {
		return fmt.Errorf("plan_stream: no Run/Reduce spans recorded")
	}
	out.set("backend.run_ms", "ms", ms(run))
	out.set("backend.reduce_ms", "ms", ms(red))
	out.set("backend.run_ns_per_elem", "ns", float64(run)/streamN)
	out.set("backend.reduce_ns_per_elem", "ns", float64(red)/streamN)
	br, bd := streamCallBytes(true), streamCallBytes(false)
	out.set("backend.bytes_per_elem", "B/elem-computed", (br+bd)/2)
	achieved := (br*streamN/run.Seconds() + bd*streamN/red.Seconds()) / 2
	out.set("backend.roofline_fraction", "ratio", achieved/streamBps)

	// Allocations per call, over Run/Reduce pairs without checking
	// (the check allocates nothing either).
	const allocPairs = 4
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range int64(allocPairs) {
		vr, vd := w.vectors(i)
		if _, err := w.plan.Run(w.values[vr]); err != nil {
			return err
		}
		if _, err := w.plan.Reduce(w.values[vd]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	out.set("backend.allocs_per_op", "allocs", float64(m1.Mallocs-m0.Mallocs)/(2*allocPairs))

	var build []time.Duration
	for range 3 {
		t0 := time.Now()
		p, err := buildPlan(core.AddInt64, w.labels, streamM)
		if err != nil {
			return err
		}
		build = append(build, time.Since(t0))
		p.Close()
	}
	out.set("backend.plan_build_ms", "ms", ms(medianDur(build)))
	return nil
}

func (w *streamWorkload) decisions() map[string]string {
	d := map[string]string{"plan_stream.auto_plan": core.AutoPlanChoice(streamN, streamM, core.Config{})}
	if w.plan != nil {
		d["plan_stream.inc_mode"] = w.plan.IncStats().Mode
	}
	return d
}

func (w *streamWorkload) close() {
	if w.plan != nil {
		w.plan.Close()
	}
}
