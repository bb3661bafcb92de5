// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time from a single process and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, from spans recorded around
// the benchmark's own calls into each layer and from replays of those
// calls on the identical inputs. Every answer is checked against the
// serial reference; a wrong answer makes the command exit 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload svc_json --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"multiprefix/internal/core"
)

// setupChildren is how many fresh processes re-measure set-up beside
// the run's own: setup_s is the median of all of them.
const setupChildren = 4

// sideSeconds is the traced time given to each workload other than
// the one a traced run is for, so that every traced run reports every
// per-layer metric.
const sideSeconds = 2.0

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

func run() int {
	var o options
	var setupChild bool
	flag.StringVar(&o.workload, "workload", "", "workload: svc_json, plan_stream, plan_update or nas_rank")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for run records and trace files")
	flag.BoolVar(&setupChild, "setup-child", false, "internal: time one fresh set-up and exit")
	flag.Parse()
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	if setupChild {
		return childSetup(o)
	}
	if _, err := newWorkload(o.workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rec := newRecord(o)
	var (
		m   metrics
		t   tally
		err error
	)
	if o.trace == 1 {
		m, t, err = tracedRun(o, rec)
	} else {
		m, t, err = untracedRun(o, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := m.complete(o.trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Tally = t.String()
	rec.FailRatio = t.failRatio()
	rec.finish(o)
	printMetrics(o, m, t)
	correct := t.byClass[wrongAnswer] == 0
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, t.attempted, t.failed(), m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", t.String())
		return 1
	}
	return 0
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// childResult is what a set-up child prints.
type childResult struct {
	SetupS    float64           `json:"setup_s"`
	Decisions map[string]string `json:"decisions"`
}

// childSetup generates the workload's inputs, then times its set-up
// from a fresh process and prints the result.
func childSetup(o options) int {
	w, err := newWorkload(o.workload)
	if err == nil {
		err = w.gen(o.seed, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup child:", err)
		return 1
	}
	defer w.close()
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup child:", err)
		return 1
	}
	b, _ := json.Marshal(childResult{SetupS: time.Since(t0).Seconds(), Decisions: w.decisions()})
	fmt.Println(string(b))
	return 0
}

// setupInChildren times set-up in fresh processes of this binary, one
// after another, before the run allocates its own inputs.
func setupInChildren(o options) ([]childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []childResult
	for range setupChildren {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-child", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		var r childResult
		if err := json.Unmarshal(bytes.TrimSpace(b), &r); err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", b, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func untracedRun(o options, rec *record) (metrics, tally, error) {
	children, err := setupInChildren(o)
	if err != nil {
		return nil, tally{}, err
	}
	w, _ := newWorkload(o.workload)
	defer w.close()
	if err := w.gen(o.seed, false); err != nil {
		return nil, tally{}, fmt.Errorf("gen: %w", err)
	}
	// Set-up starts from a collected heap, as in a process that has just
	// loaded its inputs: the generator's garbage must not be collected
	// while Auto times its calibration.
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, tally{}, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	rec.noteDecisions(w.decisions())
	for _, c := range children {
		setups = append(setups, c.SetupS)
		rec.noteChild(c)
	}
	rec.SetupSamples = slices.Clone(setups)

	res, err := w.run(dur(o.seconds), p99Ops, nil)
	if err != nil {
		return nil, res.tally, err
	}
	lat := slices.Clone(res.lat)
	slices.Sort(lat)
	p50, _, err := percentile(lat, 0.50)
	if err != nil {
		return nil, res.tally, err
	}
	p99, beyond, err := percentile(lat, 0.99)
	if err != nil {
		return nil, res.tally, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, res.tally, err
	}
	rec.Samples, rec.BeyondP99, rec.WindowS = len(lat), beyond, res.wall.Seconds()
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("ops_per_s", "1/s", res.opsPerSec())
	m.set("p50_ms", "ms", ms(p50))
	m.set("p99_ms", "ms", ms(p99))
	m.set("peak_rss_mb", "MB", rss)
	return m, res.tally, nil
}

// tracedRun measures the named workload untraced and traced for half
// the time each (their throughput ratio is the tracing overhead), then
// gives every other workload a short traced pass, so that the run
// reports every per-layer metric.
func tracedRun(o options, rec *record) (metrics, tally, error) {
	m := metrics{}
	var total tally

	var probe []time.Duration
	var gbps []float64
	for range 3 {
		t0 := time.Now()
		p := core.MeasureMemProbe()
		probe = append(probe, time.Since(t0))
		gbps = append(gbps, p.StreamBps/1e9)
	}
	streamBps := median(gbps) * 1e9
	m.set("core.memprobe_ms", "ms", ms(medianDur(probe)))
	m.set("core.stream_gbps", "GB/s", streamBps/1e9)

	order := []string{o.workload}
	for _, n := range workloadNames {
		if n != o.workload {
			order = append(order, n)
		}
	}
	for k, name := range order {
		half := dur(sideSeconds / 2)
		if k == 0 {
			half = dur(o.seconds / 2)
		}
		ratio, t, err := tracePass(name, o, half, streamBps, m, rec)
		total.merge(t)
		if err != nil {
			return nil, total, fmt.Errorf("%s: %w", name, err)
		}
		rec.TraceOpsRatio[name] = ratio
		if k == 0 {
			m.set("trace.ops_ratio", "ratio", ratio)
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	return m, total, nil
}

// tracePass sets one workload up, runs it untraced and then traced for
// half each, adds its per-layer metrics and writes its spans. It
// returns traced over untraced throughput.
func tracePass(name string, o options, half time.Duration, streamBps float64, m metrics, rec *record) (float64, tally, error) {
	w, _ := newWorkload(name)
	defer w.close()
	if err := w.gen(o.seed, false); err != nil {
		return 0, tally{}, err
	}
	runtime.GC()
	if err := w.setup(); err != nil {
		return 0, tally{}, err
	}
	rec.noteDecisions(w.decisions())
	plain, err := w.run(half, 1, nil)
	if err != nil {
		return 0, plain.tally, err
	}
	tr := newTracer()
	traced, err := w.run(half, 1, tr)
	t := plain.tally
	t.merge(traced.tally)
	if err != nil {
		return 0, t, err
	}
	if err := w.layers(tr, streamBps, m); err != nil {
		return 0, t, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%s-seed%d.json", o.workload, name, o.seed))
	sum, err := tr.write(path, rec)
	if err != nil {
		return 0, t, err
	}
	for _, s := range sum {
		fmt.Printf("span %-12s %-24s n=%-6d median=%.4fms self=%.4fms self_share=%.3f\n",
			name, s.Name, s.Count, s.MedianMS, s.SelfMedMS, s.SelfShare)
	}
	return traced.opsPerSec() / plain.opsPerSec(), t, nil
}

// complete checks that m holds exactly the declared metrics of the
// run's kind.
func (m metrics) complete(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var errs []error
	for _, d := range defs {
		v, ok := m[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", d.Name))
		case v.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit))
		}
	}
	if len(m) != len(defs) {
		errs = append(errs, fmt.Errorf("%d metrics measured, %d declared", len(m), len(defs)))
	}
	return errors.Join(errs...)
}

func printMetrics(o options, m metrics, t tally) {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v := m[d.Name]
		fmt.Printf("metric %-12s %-32s %14.6g %s\n", o.workload, d.Name, v.Value, v.Unit)
	}
	if o.trace == 0 {
		// fail_ratio is 0 on every accepted run, so it is printed here and
		// carried by the attempted/failed fields rather than listed as a
		// bounded metric.
		fmt.Printf("metric %-12s %-32s %14.6g ratio (%d/%d)\n", o.workload, "fail_ratio", t.failRatio(), t.failed(), t.attempted)
	}
}
