// Command mp computes a multiprefix operation over values and labels
// read from stdin: one "label value" pair per line (labels 0-based
// integers, values int64). It prints the per-element multiprefix sums
// and the per-label reductions — a direct CLI rendering of the paper's
// Figure 1.
//
// Usage:
//
//	echo "1 1
//	1 2
//	2 1
//	1 2" | mp [-op add|mul|max|min] [-backend auto|serial|...] [-reduce]
//
// The -backend flag (alias: -engine) accepts any name in the unified
// backend registry, including the sorted segmented-scan engine
// ("sorted") and the simulated machines ("vector", "pram").
//
// -update "i=v,i=v" switches to the stateful plan path: the stdin
// vector is bound as resident plan state, each point update is applied
// in order (O(log n) per point for invertible fast ops via the plan's
// Fenwick accumulators, full re-evaluation otherwise), and the final
// maintained multiprefix is printed. With -v the plan's maintenance
// mode and resulting version are reported on stderr.
//
// -calibrate skips the computation and prints the measured memory
// probe the auto engine calibrates against (streaming/copy bandwidth,
// the random-access latency ladder, and the derived tile budget),
// honoring the MP_AUTOCAL override — the hook `make calibrate-smoke`
// checks in CI.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"multiprefix"
	"multiprefix/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mp: ")
	opName := flag.String("op", "add", "operator: add, mul, max, min, or, and, xor")
	known := strings.Join(multiprefix.Backends(), ", ")
	backendName := flag.String("backend", "auto", "backend: "+known)
	flag.StringVar(backendName, "engine", "auto", "alias for -backend")
	reduceOnly := flag.Bool("reduce", false, "print only the per-label reductions (multireduce)")
	verbose := flag.Bool("v", false, "report the engine the auto selector picked")
	update := flag.String("update", "", `point updates "i=v,i=v" applied to the bound plan before printing`)
	calibrate := flag.Bool("calibrate", false, "print the measured auto-calibration probe and exit")
	flag.Parse()

	if *calibrate {
		printCalibration()
		return
	}

	// Interrupt (Ctrl-C) cancels a run in progress: the engines notice
	// at their next barrier/chunk boundary and return context.Canceled
	// instead of leaving a large computation spinning. Registered before
	// the input is read so an interrupt during parsing also cancels.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ops := map[string]multiprefix.Op[int64]{
		"add": multiprefix.AddInt64,
		"mul": multiprefix.MulInt64,
		"max": multiprefix.MaxInt64,
		"min": multiprefix.MinInt64,
		"or":  multiprefix.OrInt64,
		"and": multiprefix.AndInt64,
		"xor": multiprefix.XorInt64,
	}
	op, ok := ops[*opName]
	if !ok {
		log.Fatalf("unknown operator %q", *opName)
	}

	var values []int64
	var labels []int
	m := 0
	sc := bufio.NewScanner(os.Stdin)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		var l int
		var v int64
		if _, err := fmt.Sscan(text, &l, &v); err != nil {
			log.Fatalf("line %d: want 'label value', got %q: %v", line, text, err)
		}
		if l < 0 {
			log.Fatalf("line %d: negative label %d", line, l)
		}
		labels = append(labels, l)
		values = append(values, v)
		if l+1 > m {
			m = l + 1
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	be, err := multiprefix.OpenBackend[int64](*backendName)
	if err != nil {
		var unknown *multiprefix.UnknownBackendError
		if errors.As(err, &unknown) {
			log.Fatalf("unknown backend %q; known backends: %s",
				unknown.Name, strings.Join(unknown.Known, ", "))
		}
		log.Fatal(err)
	}
	cfg := multiprefix.Config{Ctx: ctx}
	if *verbose && be.Name() == "auto" {
		fmt.Fprintf(os.Stderr, "mp: auto picked %s for n=%d m=%d\n",
			multiprefix.AutoChoice(len(values), m, cfg), len(values), m)
	}

	if *update != "" {
		runStateful(be, op, values, labels, m, cfg, *update, *verbose, *reduceOnly)
		return
	}

	res, err := be.Compute(op, values, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printResult(values, labels, res.Multi, res.Reductions, *reduceOnly)
}

// printResult writes the standard output format: one "i label value
// multiprefix" line per element (unless reduceOnly) followed by the
// per-label reductions.
func printResult(values []int64, labels []int, multi, red []int64, reduceOnly bool) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if !reduceOnly {
		fmt.Fprintln(w, "# i label value multiprefix")
		for i := range values {
			fmt.Fprintf(w, "%d %d %d %d\n", i, labels[i], values[i], multi[i])
		}
	}
	fmt.Fprintln(w, "# label reduction")
	for k, r := range red {
		fmt.Fprintf(w, "%d %d\n", k, r)
	}
}

// runStateful serves the -update path: build a plan, bind the stdin
// vector as its resident state, apply each "i=v" point update in
// order, and print the maintained multiprefix and reductions from a
// snapshot — exercising the same incremental machinery the service's
// /v1/update + /v1/query endpoints run on.
func runStateful(be multiprefix.Backend[int64], op multiprefix.Op[int64], values []int64, labels []int, m int, cfg multiprefix.Config, spec string, verbose, reduceOnly bool) {
	plan, err := be.Plan(op, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer plan.Close()
	if err := plan.Bind(values); err != nil {
		log.Fatal(err)
	}
	applied := 0
	for _, part := range strings.Split(spec, ",") {
		is, vs, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-update: %q is not i=v", part)
		}
		i, err := strconv.Atoi(strings.TrimSpace(is))
		if err != nil {
			log.Fatalf("-update: index %q: %v", is, err)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 64)
		if err != nil {
			log.Fatalf("-update: value %q: %v", vs, err)
		}
		if err := plan.Update(i, v); err != nil {
			log.Fatalf("-update %s: %v", part, err)
		}
		values[i] = v
		applied++
	}
	multi := make([]int64, len(values))
	red := make([]int64, m)
	version, err := plan.Snapshot(multi, red)
	if err != nil {
		log.Fatal(err)
	}
	if verbose {
		st := plan.IncStats()
		fmt.Fprintf(os.Stderr, "mp: plan mode=%s version=%d applied=%d fenwick_updates=%d fenwick_queries=%d reruns=%d\n",
			st.Mode, version, applied, st.FenwickUpdates, st.FenwickQueries, st.Reruns)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if !reduceOnly {
		fmt.Fprintln(w, "# i label value multiprefix")
		for i := range values {
			fmt.Fprintf(w, "%d %d %d %d\n", i, labels[i], values[i], multi[i])
		}
	}
	fmt.Fprintln(w, "# label reduction")
	for k, r := range red {
		fmt.Fprintf(w, "%d %d\n", k, r)
	}
}

// printCalibration reports the resolved process calibration — the
// measured memory probe (or its MP_AUTOCAL=noprobe absence), the
// derived or overridden tile budget, and the auto decisions it
// produces at a few reference shapes — in a stable "key values"
// format for the calibrate-smoke CI check.
func printCalibration() {
	cal := core.DefaultCalibration()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if p := cal.Probe; p != nil {
		fmt.Fprintf(w, "stream_gbps %.2f\n", p.StreamBps/1e9)
		fmt.Fprintf(w, "copy_gbps %.2f\n", p.CopyBps/1e9)
		fmt.Fprint(w, "random_ws_bytes")
		for _, ws := range p.RandomWS {
			fmt.Fprintf(w, " %d", ws)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "random_ns")
		for _, ns := range p.RandomNs {
			fmt.Fprintf(w, " %.2f", ns)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "probe disabled (MP_AUTOCAL=noprobe)")
	}
	fmt.Fprintf(w, "tile_bytes %d\n", core.AutoTileBytes(multiprefix.Config{}))
	fmt.Fprintf(w, "serial_max %d\n", cal.SerialMax)
	for _, shape := range []struct{ n, m int }{
		{1 << 16, 1 << 8}, {1 << 18, 1 << 4}, {1 << 18, 1 << 12}, {1 << 20, 1 << 16},
	} {
		fmt.Fprintf(w, "auto n=%d m=%d %s\n", shape.n, shape.m,
			multiprefix.AutoChoice(shape.n, shape.m, multiprefix.Config{}))
	}
}
