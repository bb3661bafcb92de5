package main

import (
	"fmt"
	"slices"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// updateWorkload puts writes beside reads on the same backend.Plan:
// two bound auto plans at n=2^18, m=1024 — int64 sum (Fenwick tier)
// and int64 max (re-run tier) — driven by seeded transactions, 7 of 8
// on the sum plan. A shadow value vector per plan is recomputed with
// core.Serial at seeded transactions to check the answers.
type updateWorkload struct {
	labels  []int
	sum     incPlan
	max     incPlan
	txns    *txnGen
	answers [updQ + 1]int64

	// IncStats of both plans around the traced loop, and its length.
	before, after [2]backend.IncStats
	tracedTxns    int
}

// incPlan is one bound plan and the shadow copy of its resident values.
type incPlan struct {
	name   string
	op     core.Op[int64]
	init   []int64
	shadow []int64
	plan   *backend.Plan[int64]
	// span names, built once so that the timed loop builds no strings
	spTxn, spUpdate, spQuery, spReduce string
}

func newIncPlan(name string, op core.Op[int64], init []int64) incPlan {
	return incPlan{name: name, op: op, init: init,
		spTxn: "inc.txn." + name, spUpdate: "inc." + name + ".update",
		spQuery: "inc." + name + ".query", spReduce: "inc." + name + ".reduce_label"}
}

func (w *updateWorkload) gen(seed int64, _ bool) error {
	r := rng(seed, 0x7570)
	w.labels = genLabels(r, updN, updM)
	w.sum = newIncPlan("sum", core.AddInt64, genValues(r, updN, 1000))
	w.max = newIncPlan("max", core.MaxInt64, genValues(r, updN, 1000))
	w.txns = newTxnGen(seed)
	return nil
}

func (w *updateWorkload) setup() error {
	core.DefaultCalibration()
	for _, p := range []*incPlan{&w.sum, &w.max} {
		plan, err := buildPlan(p.op, w.labels, updM)
		if err != nil {
			return err
		}
		p.plan = plan
		if err := plan.Bind(p.init); err != nil {
			return fmt.Errorf("bind %s: %w", p.name, err)
		}
		p.shadow = slices.Clone(p.init)
	}
	return nil
}

// txn applies one transaction to p, recording its answers in
// w.answers (the updQ prefixes, then the label reduction) and, when
// traced, one span per batch of calls.
func (w *updateWorkload) txn(p *incPlan, t *txn, tr *tracer, op int64) error {
	root := tr.reserve(p.spTxn, op, time.Now())
	t0 := time.Now()
	for i := range t.idx {
		if err := p.plan.Update(t.idx[i], t.val[i]); err != nil {
			return err
		}
	}
	t1 := time.Now()
	tr.add(p.spUpdate, op, root, t0, t1)
	q := 0
	if t.onMax {
		// The first read after a write on the re-run tier refreshes.
		v, err := p.plan.QueryPrefix(t.queries[0])
		if err != nil {
			return err
		}
		w.answers[0] = v
		q = 1
		t2 := time.Now()
		tr.add("inc.max.refresh", op, root, t1, t2)
		t1 = t2
	}
	for ; q < updQ; q++ {
		v, err := p.plan.QueryPrefix(t.queries[q])
		if err != nil {
			return err
		}
		w.answers[q] = v
	}
	t2 := time.Now()
	tr.add(p.spQuery, op, root, t1, t2)
	v, err := p.plan.ReduceLabel(t.label)
	if err != nil {
		return err
	}
	w.answers[updQ] = v
	t3 := time.Now()
	tr.add(p.spReduce, op, root, t2, t3)
	tr.finish(root, t3)
	return nil
}

// verify recomputes p's shadow with core.Serial and compares the
// plan's full snapshot against it, and with t set also that
// transaction's answers.
func (w *updateWorkload) verify(p *incPlan, t *txn) (bool, error) {
	want, err := core.Serial(p.op, p.shadow, w.labels, updM)
	if err != nil {
		return false, err
	}
	if t != nil {
		for q, i := range t.queries {
			if w.answers[q] != want.Multi[i] {
				return false, nil
			}
		}
		if w.answers[updQ] != want.Reductions[t.label] {
			return false, nil
		}
	}
	multi, red := make([]int64, updN), make([]int64, updM)
	if _, err := p.plan.Snapshot(multi, red); err != nil {
		return false, err
	}
	return slices.Equal(multi, want.Multi) && slices.Equal(red, want.Reductions), nil
}

func (w *updateWorkload) run(d time.Duration, minOps int, tr *tracer) (runResult, error) {
	if tr != nil {
		w.before = w.incStats()
	}
	res := serialLoop(d, minOps, func(i int64) (time.Duration, int, time.Duration) {
		t, check := w.txns.draw()
		p := &w.sum
		if t.onMax {
			p = &w.max
		}
		t0 := time.Now()
		err := w.txn(p, &t, tr, i)
		t1 := time.Now()
		if err != nil {
			return t1.Sub(t0), opError, 0
		}
		for k := range t.idx {
			p.shadow[t.idx[k]] = t.val[k]
		}
		class := okOp
		if check {
			if ok, err := w.verify(p, &t); err != nil {
				class = opError
			} else if !ok {
				class = wrongAnswer
			}
		}
		return t1.Sub(t0), class, time.Since(t1)
	})
	if tr != nil {
		w.after = w.incStats()
		w.tracedTxns = len(res.lat)
	}
	// Every run ends with both plans checked in full, so a wrong state
	// left after the last seeded check still fails the run.
	for _, p := range []*incPlan{&w.sum, &w.max} {
		ok, err := w.verify(p, nil)
		if err != nil {
			return res, err
		}
		if !ok {
			res.tally.add(wrongAnswer)
		}
	}
	return res, nil
}

func (w *updateWorkload) layers(tr *tracer, _ float64, out metrics) error {
	perCall := func(name string, k int) float64 {
		ds := tr.durations(name)
		if len(ds) == 0 {
			return 0
		}
		return float64(medianDur(ds)) / float64(k)
	}
	out.set("backend.inc.update_ns", "ns", perCall("inc.sum.update", updK))
	out.set("backend.inc.query_ns", "ns", perCall("inc.sum.query", updQ))
	out.set("backend.inc.reduce_label_ns", "ns", perCall("inc.sum.reduce_label", 1))
	out.set("backend.inc.refresh_ms", "ms", perCall("inc.max.refresh", 1)/1e6)

	if w.tracedTxns == 0 {
		return fmt.Errorf("plan_update: no traced transactions")
	}
	perTxn := func(f func(backend.IncStats) uint64) float64 {
		var d uint64
		for k := range w.after {
			d += f(w.after[k]) - f(w.before[k])
		}
		return float64(d) / float64(w.tracedTxns)
	}
	out.set("backend.inc.reruns_per_txn", "count/txn", perTxn(func(s backend.IncStats) uint64 { return s.Reruns }))
	out.set("backend.inc.fenwick_updates", "count/txn", perTxn(func(s backend.IncStats) uint64 { return s.FenwickUpdates }))
	out.set("backend.inc.fenwick_queries", "count/txn", perTxn(func(s backend.IncStats) uint64 { return s.FenwickQueries }))
	out.set("backend.inc.rebuilds", "count/txn", perTxn(func(s backend.IncStats) uint64 { return s.Rebuilds }))
	return nil
}

func (w *updateWorkload) incStats() [2]backend.IncStats {
	return [2]backend.IncStats{w.sum.plan.IncStats(), w.max.plan.IncStats()}
}

func (w *updateWorkload) decisions() map[string]string {
	d := map[string]string{"plan_update.auto_plan": core.AutoPlanChoice(updN, updM, core.Config{})}
	if w.sum.plan != nil {
		d["plan_update.sum_mode"] = w.sum.plan.IncStats().Mode
		d["plan_update.max_mode"] = w.max.plan.IncStats().Mode
	}
	return d
}

func (w *updateWorkload) close() {
	for _, p := range []*incPlan{&w.sum, &w.max} {
		if p.plan != nil {
			p.plan.Close()
		}
	}
}
