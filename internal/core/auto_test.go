package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// TestAutoChoice pins the selection rules: one worker or small n or
// m > n picks serial; beyond the crossover Auto picks chunked.
func TestAutoChoice(t *testing.T) {
	cal := &AutoCalibration{SerialMax: 1000}
	cases := []struct {
		name string
		n, m int
		cfg  Config
		want string
	}{
		{"one-worker", 1 << 20, 64, Config{Workers: 1, AutoCal: cal}, "serial"},
		{"small-n", 1000, 64, Config{Workers: 4, AutoCal: cal}, "serial"},
		{"sparse-labels", 4000, 5000, Config{Workers: 4, AutoCal: cal}, "serial"},
		{"big", 4000, 64, Config{Workers: 4, AutoCal: cal}, "chunked"},
	}
	for _, tc := range cases {
		if got := AutoChoice(tc.n, tc.m, tc.cfg); got != tc.want {
			t.Errorf("%s: AutoChoice(%d, %d) = %q, want %q", tc.name, tc.n, tc.m, got, tc.want)
		}
	}
}

// TestAutoCandidates pins Auto's candidate set: under the measured
// probe, with the probe disabled (the MP_AUTOCAL=noprobe calibration)
// and under a synthetic calibration, AutoChoice and AutoPlanChoice
// return only serial or chunked across worker counts and shapes that
// include the label-heavy (2^22, 16) and NAS IS (2^20, 2^19) shapes.
// The two functions agree.
func TestAutoCandidates(t *testing.T) {
	measured := DefaultCalibration()
	noprobe := measured
	noprobe.Probe = nil
	cals := map[string]*AutoCalibration{
		"process":       nil,
		"measured":      &measured,
		"noprobe":       &noprobe,
		"low-serialmax": {SerialMax: 1, Probe: measured.Probe},
	}
	shapes := []struct{ n, m int }{
		{0, 1}, {1000, 64}, {1 << 16, 1 << 8}, {1 << 18, 1 << 4}, {1 << 18, 1 << 12},
		{1 << 18, 1 << 16}, {1 << 20, 1 << 16}, {1 << 20, 1 << 19}, {1 << 22, 16}, {1 << 22, 1024},
	}
	for name, cal := range cals {
		for _, workers := range []int{0, 1, 2, 8} {
			cfg := Config{Workers: workers, AutoCal: cal}
			for _, sh := range shapes {
				got := AutoChoice(sh.n, sh.m, cfg)
				if got != "serial" && got != "chunked" {
					t.Errorf("%s/w%d: AutoChoice(%d, %d) = %q, want serial|chunked", name, workers, sh.n, sh.m, got)
				}
				if plan := AutoPlanChoice(sh.n, sh.m, cfg); plan != got {
					t.Errorf("%s/w%d: AutoPlanChoice(%d, %d) = %q, AutoChoice = %q", name, workers, sh.n, sh.m, plan, got)
				}
			}
		}
	}
}

// TestAutoChoiceIgnoresTiming pins Auto as a pure function of the
// shape: for every shape the committed engine snapshot records
// (BENCH_engines.json calibration.decisions), plus the NAS IS rank
// shape (2^20, 2^19) and three shapes beyond the crossover, AutoChoice
// equals the rule — serial unless workers > 1, n > SerialMax and
// m <= n — at 1, 2 and 8 workers, whatever the probe measured: the
// process calibration, no probe, and two synthetic probes with
// opposite timings all choose alike.
func TestAutoChoiceIgnoresTiming(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_engines.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Calibration struct {
			Decisions []struct{ N, M int } `json:"decisions"`
		} `json:"calibration"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Calibration.Decisions) == 0 {
		t.Fatal("BENCH_engines.json records no calibration decisions")
	}
	shapes := append(snap.Calibration.Decisions, []struct{ N, M int }{
		{1 << 20, 1 << 19}, {1 << 22, 16}, {1 << 22, 1 << 22}, {1 << 22, 1 << 23},
	}...)
	fast := &MemProbe{StreamBps: 100e9, CopyBps: 100e9, RandomWS: []int{1 << 15, 1 << 23}, RandomNs: []float64{1, 2}}
	slow := &MemProbe{StreamBps: 1e9, CopyBps: 1e9, RandomWS: []int{1 << 15, 1 << 23}, RandomNs: []float64{5, 500}}
	process := DefaultCalibration()
	cals := map[string]AutoCalibration{
		"process":    process,
		"noprobe":    {SerialMax: process.SerialMax},
		"fast-probe": {SerialMax: process.SerialMax, Probe: fast},
		"slow-probe": {SerialMax: process.SerialMax, Probe: slow},
	}
	if process.SerialMax != 1<<20 && os.Getenv("MP_AUTOCAL") == "" {
		t.Fatalf("process SerialMax = %d, want the constant 2^20", process.SerialMax)
	}
	for name, cal := range cals {
		for _, workers := range []int{1, 2, 8} {
			for _, sh := range shapes {
				want := "serial"
				if workers > 1 && sh.N > cal.SerialMax && sh.M <= sh.N {
					want = "chunked"
				}
				if got := AutoChoice(sh.N, sh.M, Config{Workers: workers, AutoCal: &cal}); got != want {
					t.Errorf("%s/w%d: AutoChoice(%d, %d) = %q, want %q", name, workers, sh.N, sh.M, got, want)
				}
			}
		}
	}
}

// TestAutoMatchesSerial forces each branch of the Auto engine via
// AutoCal overrides and checks agreement with the Serial reference for
// both Auto and AutoReduce, unpooled and pooled.
func TestAutoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	values, labels := randInput(rng, 6000, 101)
	want, err := Serial(AddInt64, values, labels, 101)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"serial-branch", Config{Workers: 1}},
		{"chunked-branch", Config{Workers: 4, AutoCal: &AutoCalibration{SerialMax: 100}}},
		{"default-cal", Config{Workers: 4}},
	}
	for _, tc := range cfgs {
		got, err := Auto(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: Auto: %v", tc.name, err)
		}
		sameResult(t, tc.name+"/auto", got, want)
		red, err := AutoReduce(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: AutoReduce: %v", tc.name, err)
		}
		for k := range want.Reductions {
			if red[k] != want.Reductions[k] {
				t.Fatalf("%s: red[%d]=%d, want %d", tc.name, k, red[k], want.Reductions[k])
			}
		}
		got, err = b.Auto(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: pooled Auto: %v", tc.name, err)
		}
		sameResult(t, tc.name+"/pooled-auto", got, want)
		red, err = b.AutoReduce(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: pooled AutoReduce: %v", tc.name, err)
		}
		for k := range want.Reductions {
			if red[k] != want.Reductions[k] {
				t.Fatalf("%s: pooled red[%d]=%d, want %d", tc.name, k, red[k], want.Reductions[k])
			}
		}
	}
}

// TestAutoErrorPassthrough checks that invalid input and a cancelled
// context come back as-is from every Auto variant (no silent serial
// retry), matching the Fallback contract.
func TestAutoErrorPassthrough(t *testing.T) {
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cal := &AutoCalibration{SerialMax: 1}
	cfg := Config{Workers: 4, AutoCal: cal}

	// Out-of-range label: ErrBadInput from all variants.
	badLabels := []int{0, 1, 99}
	vals := []int64{1, 2, 3}
	if _, err := Auto(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Auto bad input: %v", err)
	}
	if _, err := AutoReduce(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("AutoReduce bad input: %v", err)
	}
	if _, err := b.Auto(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("pooled Auto bad input: %v", err)
	}
	if _, err := b.AutoReduce(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("pooled AutoReduce bad input: %v", err)
	}

	// Pre-cancelled context: context.Canceled on every branch,
	// including the serial one (serialCtx honors cfg.Ctx).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(31))
	values, labels := randInput(rng, 5000, 17)
	for _, branch := range []Config{
		{Workers: 1, Ctx: ctx, AutoCal: cal},
		{Workers: 4, Ctx: ctx, AutoCal: cal},
	} {
		if _, err := Auto(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("Auto (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := AutoReduce(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("AutoReduce (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := b.Auto(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled Auto (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := b.AutoReduce(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled AutoReduce (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
	}
}

// TestAutoFallsBackOnPanic drives Auto with an operator that panics
// only on the first run: the Fallback machinery must degrade to the serial reference and still return the right
// answer. Works because the serial retry sees a fresh pass where the
// one-shot trigger has already fired.
func TestAutoFallsBackOnPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	values, labels := randInput(rng, 4000, 31)
	want, err := Serial(AddInt64, values, labels, 31)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	oneShot := Op[int64]{
		Name:     "+int64 (one-shot panic)",
		Identity: 0,
		Combine: func(a, x int64) int64 {
			if !fired {
				fired = true
				panic("injected")
			}
			return a + x
		},
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	cfg := Config{Workers: 1, AutoCal: &AutoCalibration{SerialMax: 100}}
	got, err := Auto(oneShot, values, labels, 31, cfg)
	if err != nil {
		t.Fatalf("Auto with fallback: %v", err)
	}
	if !fired {
		t.Fatal("panic never fired; test exercised nothing")
	}
	sameResult(t, "fallback", got, want)

	// Pooled Auto degrades the same way on a persistent parallel
	// failure (panicking op only in the chunked branch's workers would
	// be nondeterministic; instead verify the pooled path returns the
	// typed error through b.Serial's retry of a clean op).
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	fired = false
	got, err = b.Auto(oneShot, values, labels, 31, cfg)
	if err != nil {
		t.Fatalf("pooled Auto with fallback: %v", err)
	}
	sameResult(t, "pooled-fallback", got, want)
}
