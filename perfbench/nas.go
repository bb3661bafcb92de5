package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
	"multiprefix/internal/intsort"
)

// nasWorkload is the paper's NAS IS ranking (Figure 11): RankMP over
// NASKeys with the class-A key range m=2^19, through the auto
// backend's one-shot Compute. n is scaled down from class A's 2^23 so
// that one ranking takes milliseconds, not a second.
type nasWorkload struct {
	keys [][]int32
	// want holds the counting-sort ranks, checked once with
	// intsort.VerifyRanks. An op is correct when its ranks equal them:
	// that implies VerifyRanks passes, and allocates nothing, so the
	// check adds no garbage collection to the measured loop.
	want [][]int64
	be   backend.Backend[int64]
}

func (w *nasWorkload) gen(seed int64, setupOnly bool) error {
	w.keys = genNASKeys(seed)
	if setupOnly {
		return nil
	}
	for _, k := range w.keys {
		r, err := intsort.RankCounting(k, nasM)
		if err != nil {
			return err
		}
		if err := intsort.VerifyRanks(k, r); err != nil {
			return fmt.Errorf("oracle ranks: %w", err)
		}
		w.want = append(w.want, r)
	}
	return nil
}

func (w *nasWorkload) setup() error {
	core.DefaultCalibration()
	be, err := backend.Open[int64]("auto")
	w.be = be
	return err
}

func (w *nasWorkload) run(d time.Duration, minOps int, tr *tracer) (runResult, error) {
	return serialLoop(d, minOps, func(i int64) (time.Duration, int, time.Duration) {
		keys := w.keys[i%nasKeySets]
		t0 := time.Now()
		ranks, err := intsort.RankMP(keys, nasM, w.be, core.Config{})
		t1 := time.Now()
		tr.add("intsort.RankMP", i, 0, t0, t1)
		if err != nil {
			return t1.Sub(t0), opError, 0
		}
		class := okOp
		if !slices.Equal(ranks, w.want[i%nasKeySets]) {
			class = wrongAnswer
		}
		return t1.Sub(t0), class, time.Since(t1)
	}), nil
}

func (w *nasWorkload) layers(tr *tracer, _ float64, out metrics) error {
	rank := medianDur(tr.durations("intsort.RankMP"))
	if rank == 0 {
		return fmt.Errorf("nas_rank: no RankMP spans recorded")
	}
	labels := make([]int, nasN)
	for i, k := range w.keys[0] {
		labels[i] = int(k)
	}
	ones := make([]int64, nasN)
	for i := range ones {
		ones[i] = 1
	}
	// The one-shot Compute RankMP makes, on pre-converted labels.
	const reps = 5
	var comp []time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range reps {
		t0 := time.Now()
		if _, err := backend.Compute[int64]("auto", core.AddInt64, ones, labels, nasM, core.Config{}); err != nil {
			return err
		}
		comp = append(comp, time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	compute := medianDur(comp)
	out.set("core.compute_ms", "ms", ms(compute))
	out.set("core.oneshot_allocs_per_op", "allocs", float64(m1.Mallocs-m0.Mallocs)/reps)
	out.set("core.oneshot_alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/reps/(1<<20))
	out.set("intsort.rank_overhead_ms", "ms", ms(rank-compute))

	// Table 4's split: the planned setup on the same keys, as a share
	// of one ranking.
	var build []time.Duration
	for range 3 {
		t0 := time.Now()
		p, err := buildPlan(core.AddInt64, labels, nasM)
		if err != nil {
			return err
		}
		build = append(build, time.Since(t0))
		p.Close()
	}
	b := medianDur(build)
	out.set("backend.nas_plan_build_ms", "ms", ms(b))
	out.set("backend.nas_setup_share", "ratio", float64(b)/float64(rank))
	return nil
}

func (w *nasWorkload) decisions() map[string]string {
	return map[string]string{"nas_rank.auto_oneshot": core.AutoChoice(nasN, nasM, core.Config{})}
}

func (w *nasWorkload) close() {}
