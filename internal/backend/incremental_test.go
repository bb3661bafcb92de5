package backend

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// incPlan builds a bound plan for the incremental tests.
func incPlan[T any](t *testing.T, name string, op core.Op[T], labels []int, m int, cfg core.Config) *Plan[T] {
	t.Helper()
	be, err := Open[T](name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	p, err := be.Plan(op, labels, m, cfg)
	if err != nil {
		t.Fatalf("%s: Plan: %v", name, err)
	}
	t.Cleanup(p.Close)
	return p
}

// checkIncParity compares every point query and the full snapshot of p
// against a serial recompute over vals.
func checkIncParity[T comparable](t *testing.T, name string, p *Plan[T], op core.Op[T], vals []T, labels []int, m int) {
	t.Helper()
	want, err := core.Serial(op, vals, labels, m)
	if err != nil {
		t.Fatalf("%s: serial reference: %v", name, err)
	}
	for i := range vals {
		got, err := p.QueryPrefix(i)
		if err != nil {
			t.Fatalf("%s: QueryPrefix(%d): %v", name, i, err)
		}
		if got != want.Multi[i] {
			t.Fatalf("%s: QueryPrefix(%d) = %v, want %v", name, i, got, want.Multi[i])
		}
	}
	for c := 0; c < m; c++ {
		got, err := p.ReduceLabel(c)
		if err != nil {
			t.Fatalf("%s: ReduceLabel(%d): %v", name, c, err)
		}
		if got != want.Reductions[c] {
			t.Fatalf("%s: ReduceLabel(%d) = %v, want %v", name, c, got, want.Reductions[c])
		}
	}
	multi := make([]T, len(vals))
	red := make([]T, m)
	if _, err := p.Snapshot(multi, red); err != nil {
		t.Fatalf("%s: Snapshot: %v", name, err)
	}
	for i := range multi {
		if multi[i] != want.Multi[i] {
			t.Fatalf("%s: Snapshot multi[%d] = %v, want %v", name, i, multi[i], want.Multi[i])
		}
	}
	for c := range red {
		if red[c] != want.Reductions[c] {
			t.Fatalf("%s: Snapshot red[%d] = %v, want %v", name, c, red[c], want.Reductions[c])
		}
	}
}

// TestIncrementalUpdateParity drives a random update/query stream
// through every registered backend's plan and checks each answer
// against a full serial recompute. int64 sum is exact under any
// association, so every backend must agree bit for bit. The extra
// Workers:2 chunked plan pins a team-run refresh independently of
// GOMAXPROCS.
func TestIncrementalUpdateParity(t *testing.T) {
	const n, m = 96, 7
	values, labels, _ := refInput(7, n, m)
	type planCase struct {
		name string
		cfg  core.Config
	}
	var cases []planCase
	for _, name := range Names() {
		cases = append(cases, planCase{name, backendCfg(name)})
	}
	cases = append(cases, planCase{"chunked", core.Config{Workers: 2}})
	for _, tc := range cases {
		name := tc.name
		p := incPlan(t, name, core.AddInt64, labels, m, tc.cfg)
		if err := p.Bind(values); err != nil {
			t.Fatalf("%s: Bind: %v", name, err)
		}
		vals := append([]int64(nil), values...)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 120; step++ {
			i := rng.Intn(n)
			v := rng.Int63n(4001) - 2000
			if err := p.Update(i, v); err != nil {
				t.Fatalf("%s: Update: %v", name, err)
			}
			vals[i] = v
			// Interleave point queries with occasional full snapshots so
			// both the Fenwick tier and the refresh tier get exercised.
			if step%29 == 0 {
				checkIncParity(t, name, p, core.AddInt64, vals, labels, m)
				continue
			}
			want, err := core.Serial(core.AddInt64, vals, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			qi := rng.Intn(n)
			got, err := p.QueryPrefix(qi)
			if err != nil {
				t.Fatalf("%s: QueryPrefix: %v", name, err)
			}
			if got != want.Multi[qi] {
				t.Fatalf("%s: step %d QueryPrefix(%d) = %d, want %d", name, step, qi, got, want.Multi[qi])
			}
			qc := rng.Intn(m)
			rgot, err := p.ReduceLabel(qc)
			if err != nil {
				t.Fatalf("%s: ReduceLabel: %v", name, err)
			}
			if rgot != want.Reductions[qc] {
				t.Fatalf("%s: step %d ReduceLabel(%d) = %d, want %d", name, step, qc, rgot, want.Reductions[qc])
			}
		}
		st := p.IncStats()
		if st.Mode != "fenwick-int64" {
			t.Fatalf("%s: mode = %q, want fenwick-int64", name, st.Mode)
		}
		if st.FenwickQueries == 0 || st.FenwickUpdates == 0 {
			t.Fatalf("%s: fenwick tier never engaged: %+v", name, st)
		}
	}
}

// TestIncrementalFloat64SafeStaysExact pins the float64 Fenwick tier:
// inside the exact envelope (integer-valued floats, |v| <= 2^52/n) the
// tree answers must be bit-identical to the serial recompute.
func TestIncrementalFloat64SafeStaysExact(t *testing.T) {
	const n, m = 80, 5
	rng := rand.New(rand.NewSource(23))
	labels := make([]int, n)
	vals := make([]float64, n)
	for i := range vals {
		labels[i] = rng.Intn(m)
		vals[i] = float64(rng.Intn(2001) - 1000)
	}
	for _, name := range []string{"serial", "chunked", "auto"} {
		p := incPlan(t, name, core.AddFloat64, labels, m, backendCfg(name))
		if err := p.Bind(vals); err != nil {
			t.Fatalf("%s: Bind: %v", name, err)
		}
		cur := append([]float64(nil), vals...)
		for step := 0; step < 60; step++ {
			i := rng.Intn(n)
			v := float64(rng.Intn(2001) - 1000)
			if err := p.Update(i, v); err != nil {
				t.Fatalf("%s: Update: %v", name, err)
			}
			cur[i] = v
			want, err := core.Serial(core.AddFloat64, cur, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			qi := rng.Intn(n)
			got, err := p.QueryPrefix(qi)
			if err != nil {
				t.Fatalf("%s: QueryPrefix: %v", name, err)
			}
			if math.Float64bits(got) != math.Float64bits(want.Multi[qi]) {
				t.Fatalf("%s: QueryPrefix(%d) = %v, want bit-identical %v", name, qi, got, want.Multi[qi])
			}
		}
		st := p.IncStats()
		if st.Mode != "fenwick-float64" || st.Drifts != 0 {
			t.Fatalf("%s: stats = %+v, want undrifted fenwick-float64", name, st)
		}
		if st.FenwickQueries == 0 {
			t.Fatalf("%s: fenwick tier never engaged: %+v", name, st)
		}
	}
}

// TestIncrementalFloat64DriftFallsBack pins the drift contract: one
// update outside the exact envelope permanently (until the next Bind)
// demotes the plan to the re-run tier, and answers stay correct.
func TestIncrementalFloat64DriftFallsBack(t *testing.T) {
	const n, m = 48, 4
	labels := make([]int, n)
	vals := make([]float64, n)
	for i := range vals {
		labels[i] = i % m
		vals[i] = float64(i - n/2)
	}
	p := incPlan(t, "serial", core.AddFloat64, labels, m, core.Config{})
	if err := p.Bind(vals); err != nil {
		t.Fatal(err)
	}
	if st := p.IncStats(); st.Mode != "fenwick-float64" {
		t.Fatalf("mode = %q before drift", st.Mode)
	}
	cur := append([]float64(nil), vals...)
	// 0.5 is not integer-valued: outside the envelope.
	if err := p.Update(3, 0.5); err != nil {
		t.Fatal(err)
	}
	cur[3] = 0.5
	st := p.IncStats()
	if st.Mode != "rerun" || st.Drifts != 1 {
		t.Fatalf("after drift: stats = %+v, want rerun with 1 drift", st)
	}
	// Drift is sticky: a safe update later must not resurrect the tree.
	if err := p.Update(5, 7); err != nil {
		t.Fatal(err)
	}
	cur[5] = 7
	want, err := core.Serial(core.AddFloat64, cur, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		got, err := p.QueryPrefix(i)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want.Multi[i]) {
			t.Fatalf("drifted QueryPrefix(%d) = %v, want %v", i, got, want.Multi[i])
		}
	}
	if st := p.IncStats(); st.Mode != "rerun" || st.FenwickQueries != 0 {
		t.Fatalf("drifted stats = %+v, want rerun tier only", st)
	}
	// Re-Bind with safe values clears the drift.
	if err := p.Bind(vals); err != nil {
		t.Fatal(err)
	}
	if st := p.IncStats(); st.Mode != "fenwick-float64" {
		t.Fatalf("after re-Bind: mode = %q, want fenwick-float64", st.Mode)
	}
}

// TestIncrementalNonInvertibleReruns pins the re-run tier for
// non-invertible operators: max cannot be maintained by deltas, so
// updates dirty the snapshot and queries re-run the engine.
func TestIncrementalNonInvertibleReruns(t *testing.T) {
	const n, m = 64, 6
	values, labels, _ := refInput(3, n, m)
	for _, name := range []string{"serial", "parallel", "chunked"} {
		p := incPlan(t, name, core.MaxInt64, labels, m, backendCfg(name))
		if err := p.Bind(values); err != nil {
			t.Fatalf("%s: Bind: %v", name, err)
		}
		if st := p.IncStats(); st.Mode != "rerun" {
			t.Fatalf("%s: mode = %q, want rerun", name, st.Mode)
		}
		vals := append([]int64(nil), values...)
		rng := rand.New(rand.NewSource(5))
		before := p.IncStats().Reruns
		for step := 0; step < 20; step++ {
			i := rng.Intn(n)
			v := rng.Int63n(1000) - 500
			if err := p.Update(i, v); err != nil {
				t.Fatalf("%s: Update: %v", name, err)
			}
			vals[i] = v
		}
		checkIncParity(t, name, p, core.MaxInt64, vals, labels, m)
		st := p.IncStats()
		if st.Reruns <= before {
			t.Fatalf("%s: dirty queries did not re-run: %+v", name, st)
		}
		if st.FenwickUpdates != 0 || st.FenwickQueries != 0 {
			t.Fatalf("%s: fenwick tier engaged for max: %+v", name, st)
		}
	}
}

// TestIncrementalBurstFallback pins the calibrated crossover: once more
// than burst deltas arrive between queries, the plan stops paying
// per-update tree maintenance, marks the tree stale in O(1), and the
// next query re-runs + rebuilds — after which the tree serves again.
func TestIncrementalBurstFallback(t *testing.T) {
	const n, m, burst = 64, 4, 4
	values, labels, _ := refInput(13, n, m)
	cfg := core.Config{AutoCal: &core.AutoCalibration{UpdateBurst: burst}}
	p := incPlan(t, "serial", core.AddInt64, labels, m, cfg)
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	if st := p.IncStats(); st.Burst != burst {
		t.Fatalf("burst = %d, want pinned %d", st.Burst, burst)
	}
	vals := append([]int64(nil), values...)
	for k := 0; k < 3*burst; k++ {
		if err := p.Update(k, int64(1000+k)); err != nil {
			t.Fatal(err)
		}
		vals[k] = int64(1000 + k)
	}
	st := p.IncStats()
	if st.FenwickUpdates != burst {
		t.Fatalf("FenwickUpdates = %d, want exactly burst (%d) before the stale mark", st.FenwickUpdates, burst)
	}
	reruns, rebuilds := st.Reruns, st.Rebuilds
	// The stale tree forces the next query through re-run + rebuild.
	checkIncParity(t, "serial", p, core.AddInt64, vals, labels, m)
	st = p.IncStats()
	if st.Reruns != reruns+1 || st.Rebuilds != rebuilds+1 {
		t.Fatalf("stale query: reruns %d->%d rebuilds %d->%d, want one of each",
			reruns, st.Reruns, rebuilds, st.Rebuilds)
	}
	// After the rebuild the Fenwick tier serves again.
	fq := st.FenwickQueries
	if err := p.Update(0, -9); err != nil {
		t.Fatal(err)
	}
	vals[0] = -9
	want, err := core.Serial(core.AddInt64, vals, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.QueryPrefix(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Multi[n-1] {
		t.Fatalf("post-rebuild QueryPrefix = %d, want %d", got, want.Multi[n-1])
	}
	if st = p.IncStats(); st.FenwickQueries != fq+1 {
		t.Fatalf("post-rebuild query skipped the tree: %+v", st)
	}
}

// TestIncrementalVersionNotKey pins the invalidation contract (see
// backend.Key): Update and Bind bump Version, but the cache key — the
// construction input — is unchanged, so the service cache entry stays
// valid and only the version moves.
func TestIncrementalVersionNotKey(t *testing.T) {
	const n, m = 32, 3
	values, labels, _ := refInput(1, n, m)
	p := incPlan(t, "serial", core.AddInt64, labels, m, backendCfg("serial"))
	key := KeyFor("serial", core.AddInt64.Name, labels, m)
	if v := p.Version(); v != 0 {
		t.Fatalf("fresh plan version = %d, want 0", v)
	}
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	if v := p.Version(); v != 1 {
		t.Fatalf("version after Bind = %d, want 1", v)
	}
	for k := 0; k < 5; k++ {
		if err := p.Update(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if v := p.Version(); v != 6 {
		t.Fatalf("version after 5 updates = %d, want 6", v)
	}
	// Queries are reads: the version must not move.
	if _, err := p.QueryPrefix(0); err != nil {
		t.Fatal(err)
	}
	if v := p.Version(); v != 6 {
		t.Fatalf("version after query = %d, want 6", v)
	}
	if got := KeyFor("serial", core.AddInt64.Name, labels, m); got != key {
		t.Fatalf("cache key changed across updates: %+v != %+v", got, key)
	}
	ver, err := p.Snapshot(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 6 {
		t.Fatalf("Snapshot version = %d, want 6", ver)
	}
}

// TestIncrementalErrors pins the error contract of the stateful
// surface: everything is ErrBadInput-classified (no retry elsewhere
// can help), and ErrNotBound identifies the missing-Bind case.
func TestIncrementalErrors(t *testing.T) {
	const n, m = 16, 3
	values, labels, _ := refInput(2, n, m)
	p := incPlan(t, "serial", core.AddInt64, labels, m, core.Config{})
	if _, err := p.QueryPrefix(0); !errors.Is(err, ErrNotBound) || !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("unbound QueryPrefix: %v", err)
	}
	if err := p.Update(0, 1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbound Update: %v", err)
	}
	if _, err := p.ReduceLabel(0); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbound ReduceLabel: %v", err)
	}
	if _, err := p.Snapshot(nil, nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbound Snapshot: %v", err)
	}
	if err := p.Bind(values[:4]); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("short Bind: %v", err)
	}
	if p.Bound() {
		t.Fatal("failed Bind left plan bound")
	}
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	if !p.Bound() {
		t.Fatal("Bind did not bind")
	}
	for _, i := range []int{-1, n} {
		if err := p.Update(i, 1); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("Update(%d): %v", i, err)
		}
		if _, err := p.QueryPrefix(i); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("QueryPrefix(%d): %v", i, err)
		}
	}
	for _, c := range []int{-1, m} {
		if _, err := p.ReduceLabel(c); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("ReduceLabel(%d): %v", c, err)
		}
	}
	if _, err := p.Snapshot(make([]int64, n-1), nil); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("short snapshot multi: %v", err)
	}
	if _, err := p.Snapshot(nil, make([]int64, m+1)); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("long snapshot red: %v", err)
	}
	p.Close()
	if err := p.Update(0, 1); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("closed Update: %v", err)
	}
	if _, err := p.QueryPrefix(0); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("closed QueryPrefix: %v", err)
	}
}

// TestIncrementalBindCancelLeavesUnbound pins that a Bind whose
// refresh is cancelled does not install half-initialized state.
func TestIncrementalBindCancelLeavesUnbound(t *testing.T) {
	const n, m = 32, 3
	values, labels, _ := refInput(4, n, m)
	p := incPlan(t, "serial", core.AddInt64, labels, m, core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.BindCall(Call{Ctx: ctx}, values); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Bind: %v", err)
	}
	if p.Bound() {
		t.Fatal("cancelled Bind left plan bound")
	}
	if _, err := p.QueryPrefix(0); !errors.Is(err, ErrNotBound) {
		t.Fatalf("query after cancelled Bind: %v", err)
	}
	if err := p.Bind(values); err != nil {
		t.Fatalf("recovery Bind: %v", err)
	}
}

// TestIncrementalRefreshUnderChaos drives the re-run tier (max on the
// chunked engine) into an injected panic: the query reports the typed
// engine fault, and a later hook-free query heals — the model for the
// service's hook-free retry rung on the stateful endpoints.
func TestIncrementalRefreshUnderChaos(t *testing.T) {
	const n, m = 128, 8
	values, labels, _ := refInput(6, n, m)
	p := incPlan(t, "chunked", core.MaxInt64, labels, m, backendCfg("chunked"))
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(7, 999); err != nil {
		t.Fatal(err)
	}
	_, err := p.QueryPrefixCall(Call{Hook: fault.Seeded(1, n, "")}, 9)
	var pe *core.EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("chaos query: %v, want EnginePanicError", err)
	}
	vals := append([]int64(nil), values...)
	vals[7] = 999
	want, err := core.Serial(core.MaxInt64, vals, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.QueryPrefix(9)
	if err != nil {
		t.Fatalf("hook-free retry: %v", err)
	}
	if got != want.Multi[9] {
		t.Fatalf("post-chaos QueryPrefix = %d, want %d", got, want.Multi[9])
	}
}

// TestIncrementalEmptyPlan covers the degenerate n=0 shape: reductions
// are identities and Snapshot round-trips.
func TestIncrementalEmptyPlan(t *testing.T) {
	p := incPlan(t, "serial", core.AddInt64, nil, 3, core.Config{})
	if err := p.Bind(nil); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		got, err := p.ReduceLabel(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("empty ReduceLabel(%d) = %d, want identity", c, got)
		}
	}
	red := make([]int64, 3)
	if _, err := p.Snapshot(nil, red); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpdateQueryRun exercises the locking contract under
// the race detector: one goroutine streams point updates, one streams
// point queries, one drives full Run traffic with its own value
// vectors, all on a shared plan. The final snapshot must equal a
// serial recompute of the final resident values.
func TestConcurrentUpdateQueryRun(t *testing.T) {
	const n, m = 256, 16
	values, labels, _ := refInput(8, n, m)
	p := incPlan(t, "serial", core.AddInt64, labels, m, backendCfg("serial"))
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	final := append([]int64(nil), values...)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // updater: the only goroutine mutating resident values
		defer wg.Done()
		for k := 0; k < 300; k++ {
			i := k % n
			v := int64(7*k + 1)
			if err := p.Update(i, v); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			final[i] = v
		}
	}()
	go func() { // querier
		defer wg.Done()
		for k := 0; k < 300; k++ {
			if _, err := p.QueryPrefix(k % n); err != nil {
				t.Errorf("QueryPrefix: %v", err)
				return
			}
			if _, err := p.ReduceLabel(k % m); err != nil {
				t.Errorf("ReduceLabel: %v", err)
				return
			}
			if p.Version() == 0 {
				t.Error("version read raced to zero")
				return
			}
		}
	}()
	go func() { // stateless Run traffic on separate vectors
		defer wg.Done()
		other, _, _ := refInput(9, n, m)
		dst := make([]int64, n)
		for k := 0; k < 50; k++ {
			if err := p.RunBatch([][]int64{dst}, [][]int64{other}); err != nil {
				t.Errorf("RunBatch: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// final was only written by the (now joined) updater goroutine.
	checkIncParity(t, "serial", p, core.AddInt64, final, labels, m)
}

// TestUpdateZeroAllocs pins the warm-path allocation contract of the
// stateful hotpaths: Update, QueryPrefix, QueryPrefixCall, ReduceLabel
// and ReduceLabelCall on a bound plan allocate nothing.
func TestUpdateZeroAllocs(t *testing.T) {
	const n, m = 1 << 10, 32
	values, labels, _ := refInput(17, n, m)
	p := incPlan(t, "serial", core.AddInt64, labels, m, core.Config{})
	if err := p.Bind(values); err != nil {
		t.Fatal(err)
	}
	var sink int64
	var k int
	allocs := testing.AllocsPerRun(200, func() {
		i := k % n
		k++
		if err := p.Update(i, int64(i)); err != nil {
			t.Fatalf("Update: %v", err)
		}
		v, err := p.QueryPrefix(i)
		if err != nil {
			t.Fatalf("QueryPrefix: %v", err)
		}
		sink += v
		v, err = p.ReduceLabel(i % m)
		if err != nil {
			t.Fatalf("ReduceLabel: %v", err)
		}
		sink += v
		v, err = p.QueryPrefixCall(Call{}, i)
		if err != nil {
			t.Fatalf("QueryPrefixCall: %v", err)
		}
		sink += v
		v, err = p.ReduceLabelCall(Call{}, i%m)
		if err != nil {
			t.Fatalf("ReduceLabelCall: %v", err)
		}
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("stateful hotpaths allocated %.1f/op, want 0", allocs)
	}
	_ = sink
}

// FuzzIncrementalParity feeds a random update/query stream to a plan
// on every registered backend and cross-checks each answer against a
// full serial recompute, including the float64 envelope/drift split on
// the serial backend (where the re-run tier is the serial order itself,
// so answers stay bit-identical even after drift).
func FuzzIncrementalParity(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 200, 17, 91, 4, 5, 6})
	f.Add(int64(42), []byte{255, 254, 253, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add(int64(7), []byte("incremental-multiprefix"))
	f.Fuzz(func(t *testing.T, seed int64, stream []byte) {
		if len(stream) > 96 {
			stream = stream[:96]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		m := 1 + rng.Intn(8)
		labels := make([]int, n)
		ivals := make([]int64, n)
		fvals := make([]float64, n)
		for i := range labels {
			labels[i] = rng.Intn(m)
			ivals[i] = int64(rng.Intn(200) - 100)
			fvals[i] = float64(rng.Intn(200) - 100)
		}

		type iplan struct {
			name string
			p    *Plan[int64]
		}
		var iplans []iplan
		for _, name := range Names() {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
			if err != nil {
				t.Fatalf("%s: Plan: %v", name, err)
			}
			defer p.Close()
			if err := p.Bind(ivals); err != nil {
				t.Fatalf("%s: Bind: %v", name, err)
			}
			iplans = append(iplans, iplan{name, p})
		}
		fbe, err := Open[float64]("serial")
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fbe.Plan(core.AddFloat64, labels, m, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer fp.Close()
		if err := fp.Bind(fvals); err != nil {
			t.Fatal(err)
		}

		icur := append([]int64(nil), ivals...)
		fcur := append([]float64(nil), fvals...)
		for step, b := range stream {
			i := int(b) % n
			v := int64(int8(b ^ byte(seed)))
			for _, ip := range iplans {
				if err := ip.p.Update(i, v); err != nil {
					t.Fatalf("%s: Update: %v", ip.name, err)
				}
			}
			icur[i] = v
			fv := float64(v)
			if b%16 == 0 {
				fv += 0.5 // outside the exact envelope: must trip drift
			}
			if err := fp.Update(i, fv); err != nil {
				t.Fatalf("float: Update: %v", err)
			}
			fcur[i] = fv

			if step%3 != 0 {
				continue
			}
			iwant, err := core.Serial(core.AddInt64, icur, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			qi := int(b>>2) % n
			qc := int(b>>5) % m
			for _, ip := range iplans {
				got, err := ip.p.QueryPrefix(qi)
				if err != nil {
					t.Fatalf("%s: QueryPrefix: %v", ip.name, err)
				}
				if got != iwant.Multi[qi] {
					t.Fatalf("%s: step %d QueryPrefix(%d) = %d, want %d", ip.name, step, qi, got, iwant.Multi[qi])
				}
				rgot, err := ip.p.ReduceLabel(qc)
				if err != nil {
					t.Fatalf("%s: ReduceLabel: %v", ip.name, err)
				}
				if rgot != iwant.Reductions[qc] {
					t.Fatalf("%s: step %d ReduceLabel(%d) = %d, want %d", ip.name, step, qc, rgot, iwant.Reductions[qc])
				}
			}
			fwant, err := core.Serial(core.AddFloat64, fcur, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			fgot, err := fp.QueryPrefix(qi)
			if err != nil {
				t.Fatalf("float: QueryPrefix: %v", err)
			}
			if math.Float64bits(fgot) != math.Float64bits(fwant.Multi[qi]) {
				t.Fatalf("float: step %d QueryPrefix(%d) = %v, want bit-identical %v", step, qi, fgot, fwant.Multi[qi])
			}
		}

		// Final full-state check on every plan.
		iwant, err := core.Serial(core.AddInt64, icur, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		multi := make([]int64, n)
		red := make([]int64, m)
		for _, ip := range iplans {
			if _, err := ip.p.Snapshot(multi, red); err != nil {
				t.Fatalf("%s: Snapshot: %v", ip.name, err)
			}
			if !equalInt64(multi, iwant.Multi) || !equalInt64(red, iwant.Reductions) {
				t.Fatalf("%s: final snapshot differs from serial recompute", ip.name)
			}
		}
		drifted := false
		for _, b := range stream {
			if b%16 == 0 {
				drifted = true
			}
		}
		if st := fp.IncStats(); drifted && st.Mode != "rerun" {
			t.Fatalf("float plan saw non-integer update but mode = %q", st.Mode)
		}
	})
}
