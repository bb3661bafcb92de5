package backend

import (
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
)

// refInput builds a random multiprefix problem for the parity tests.
func refInput(seed int64, n, m int) ([]int64, []int, int) {
	rng := rand.New(rand.NewSource(seed))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	return values, labels, m
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// backendCfg returns the config each backend is exercised under: the
// parallel decompositions get an explicit worker count so they do not
// degenerate to one chunk on small CI machines.
func backendCfg(name string) core.Config {
	switch name {
	case "chunked", "parallel", "sorted":
		return core.Config{Workers: 4}
	}
	return core.Config{}
}

func TestNames(t *testing.T) {
	want := []string{"auto", "serial", "sorted", "spinetree", "chunked", "parallel", "vector", "pram"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The slice must be a fresh copy: mutating it must not poison the
	// registry.
	got[0] = "mangled"
	if Names()[0] != "auto" {
		t.Fatal("Names() returned a view of the registry")
	}
}

func TestOpenKnown(t *testing.T) {
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Fatalf("Open(%q).Name() = %q", name, be.Name())
		}
	}
}

func TestOpenUnknown(t *testing.T) {
	_, err := Open[int64]("hypercube")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %T is not *UnknownBackendError", err)
	}
	if unknown.Name != "hypercube" {
		t.Errorf("Name = %q", unknown.Name)
	}
	if len(unknown.Known) != len(Names()) {
		t.Errorf("Known = %v", unknown.Known)
	}
	if !errors.Is(err, core.ErrBadInput) {
		t.Error("unknown-backend error does not wrap ErrBadInput")
	}
	// The one-shot conveniences surface the same typed error.
	if _, err := Compute("hypercube", core.AddInt64, nil, nil, 0, core.Config{}); !errors.As(err, &unknown) {
		t.Errorf("Compute: %v", err)
	}
	if _, err := Reduce("hypercube", core.AddInt64, nil, nil, 0, core.Config{}); !errors.As(err, &unknown) {
		t.Errorf("Reduce: %v", err)
	}
}

// TestParityInt64 drives every registered backend against the serial
// reference on int64 multiprefix-PLUS — the one (type, op) combination
// every backend, including the simulated machines, supports.
func TestParityInt64(t *testing.T) {
	shapes := []struct{ n, m int }{{1, 1}, {7, 3}, {256, 16}, {5000, 128}, {5000, 1}}
	for si, shape := range shapes {
		values, labels, m := refInput(int64(si), shape.n, shape.m)
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			cfg := backendCfg(name)
			res, err := Compute(name, core.AddInt64, values, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s: n=%d m=%d: %v", name, shape.n, m, err)
			}
			if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
				t.Fatalf("%s: n=%d m=%d: result differs from serial", name, shape.n, m)
			}
			red, err := Reduce(name, core.AddInt64, values, labels, m, cfg)
			if err != nil {
				t.Fatalf("%s reduce: %v", name, err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("%s: reduce differs from serial", name)
			}
		}
	}
}

// TestParityFloat64 covers the float64 element type on every backend
// that supports it (all but pram).
func TestParityFloat64(t *testing.T) {
	const n, m = 3000, 64
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = float64(rng.Intn(50))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(core.AddFloat64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if name == "pram" {
			continue
		}
		res, err := Compute(name, core.AddFloat64, values, labels, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("%s: Multi[%d] = %v, want %v", name, i, res.Multi[i], want.Multi[i])
			}
		}
		for l := range want.Reductions {
			if res.Reductions[l] != want.Reductions[l] {
				t.Fatalf("%s: Reductions[%d] = %v, want %v", name, l, res.Reductions[l], want.Reductions[l])
			}
		}
	}
}

// TestEmptyInput: every backend must handle n == 0 — the simulated
// machines cannot build their grids for it, so the adapters special-
// case it — returning empty Multi and identity reductions.
func TestEmptyInput(t *testing.T) {
	const m = 3
	for _, name := range Names() {
		res, err := Compute(name, core.AddInt64, []int64{}, []int{}, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Multi) != 0 || len(res.Reductions) != m {
			t.Fatalf("%s: Multi=%v Reductions=%v", name, res.Multi, res.Reductions)
		}
		for l, r := range res.Reductions {
			if r != 0 {
				t.Fatalf("%s: Reductions[%d] = %d, want identity", name, l, r)
			}
		}
		red, err := Reduce(name, core.AddInt64, nil, nil, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s reduce: %v", name, err)
		}
		if len(red) != m {
			t.Fatalf("%s reduce: %v", name, red)
		}
	}
}

// TestSimulatedTypeRestrictions: the vector backend rejects element
// types outside the machine's register set, the PRAM backend rejects
// anything but int64 multiprefix-PLUS — all with wrapped ErrBadInput.
func TestSimulatedTypeRestrictions(t *testing.T) {
	concat := core.Op[string]{
		Name:     "concat",
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	for _, name := range []string{"vector", "pram"} {
		be, err := Open[string](name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Compute(concat, []string{"a"}, []int{0}, 1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s accepted string elements: %v", name, err)
		}
		if _, err := be.Plan(concat, []int{0}, 1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s Plan accepted string elements: %v", name, err)
		}
	}
	// PRAM: right type, wrong operator.
	if _, err := Compute("pram", core.MaxInt64, []int64{1}, []int{0}, 1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("pram accepted MAX: %v", err)
	}
	// Vector: float64 is in the register set, pram's is not.
	if _, err := Compute("pram", core.AddFloat64, []float64{1}, []int{0}, 1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("pram accepted float64: %v", err)
	}
}

// TestEngineAdapter checks that Backend.Engine produces a closure the
// derived core operations accept, with results matching the backend.
func TestEngineAdapter(t *testing.T) {
	values, labels, m := refInput(3, 500, 8)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		eng := be.Engine(backendCfg(name))
		res, err := eng(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalInt64(res.Multi, want.Multi) {
			t.Fatalf("%s: engine adapter result differs", name)
		}
	}
}

// TestBadInputRejected: structural validation failures surface as
// ErrBadInput from every backend.
func TestBadInputRejected(t *testing.T) {
	for _, name := range Names() {
		// Label out of range.
		if _, err := Compute(name, core.AddInt64, []int64{1}, []int{5}, 2, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s accepted out-of-range label: %v", name, err)
		}
		// Negative m.
		if _, err := Reduce(name, core.AddInt64, nil, nil, -1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s accepted m=-1: %v", name, err)
		}
	}
}
