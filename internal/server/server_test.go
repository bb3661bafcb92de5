package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"multiprefix/internal/core"
)

// testServer couples a Server with an httptest front end.
type testServer struct {
	s  *Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testServer{s: s, ts: ts}
}

// post sends body to path and decodes the response JSON into out,
// returning the HTTP response for status/header checks.
func (x *testServer) post(t *testing.T, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(x.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

// req builds a well-formed compute request body.
func req(op string, backend string, labels []int, m int, values []int64) map[string]any {
	b := map[string]any{"op": op, "m": m, "labels": labels, "values": values}
	if backend != "" {
		b["backend"] = backend
	}
	return b
}

// refInputs builds a deterministic test input.
func refInputs(n, m int) ([]int, []int64) {
	labels := make([]int, n)
	values := make([]int64, n)
	for i := range labels {
		labels[i] = (i * 7) % m
		values[i] = int64(i%13) - 4
	}
	return labels, values
}

func TestComputeEndpoints(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(1000, 17)
	for _, op := range []struct {
		name string
		op   core.Op[int64]
	}{{"sum", core.AddInt64}, {"max", core.MaxInt64}, {"xor", core.XorInt64}} {
		want, err := core.Serial(op.op, values, labels, 17)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, backend := range []string{"serial", "sorted", "chunked", "parallel", "spinetree", "auto"} {
			t.Run(op.name+"/"+backend, func(t *testing.T) {
				if backend == "sorted" { // retired: both endpoints refuse it
					for _, path := range []string{"/v1/multiprefix", "/v1/multireduce"} {
						var er errorResponse
						hr := x.post(t, path, req(op.name, backend, labels, 17, values), &er)
						if hr.StatusCode != http.StatusBadRequest || er.Error.Kind != kindUnknownBack {
							t.Fatalf("%s = %d/%q, want 400/%q", path, hr.StatusCode, er.Error.Kind, kindUnknownBack)
						}
					}
					return
				}
				var resp computeResponse
				hr := x.post(t, "/v1/multiprefix", req(op.name, backend, labels, 17, values), &resp)
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("multiprefix status %d", hr.StatusCode)
				}
				if len(resp.Multi) != len(want.Multi) || resp.Reductions != nil {
					t.Fatalf("multiprefix shape: multi %d, reductions %v", len(resp.Multi), resp.Reductions)
				}
				for i := range want.Multi {
					if resp.Multi[i] != want.Multi[i] {
						t.Fatalf("multi[%d] = %d, want %d", i, resp.Multi[i], want.Multi[i])
					}
				}

				var red computeResponse
				hr = x.post(t, "/v1/multireduce", req(op.name, backend, labels, 17, values), &red)
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("multireduce status %d", hr.StatusCode)
				}
				if red.Multi != nil || len(red.Reductions) != 17 {
					t.Fatalf("multireduce shape: multi %v, reductions %d", red.Multi, len(red.Reductions))
				}
				for k := range want.Reductions {
					if red.Reductions[k] != want.Reductions[k] {
						t.Fatalf("reductions[%d] = %d, want %d", k, red.Reductions[k], want.Reductions[k])
					}
				}
			})
		}
	}
}

func TestBatchEndpoints(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, _ := refInputs(512, 9)
	batch := make([][]int64, 4)
	for k := range batch {
		batch[k] = make([]int64, len(labels))
		for i := range batch[k] {
			batch[k][i] = int64((i + k) % 11)
		}
	}
	body := map[string]any{"op": "sum", "backend": "serial", "m": 9, "labels": labels, "batch": batch}
	for _, ep := range []string{"/v1/multiprefix/batch", "/v1/multireduce/batch"} {
		var resp batchResponse
		hr := x.post(t, ep, body, &resp)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", ep, hr.StatusCode)
		}
		if resp.Failed != 0 || len(resp.Results) != len(batch) {
			t.Fatalf("%s: failed=%d results=%d", ep, resp.Failed, len(resp.Results))
		}
		reduce := strings.Contains(ep, "multireduce")
		for k, item := range resp.Results {
			want, _ := core.Serial(core.AddInt64, batch[k], labels, 9)
			got, ref := item.Multi, want.Multi
			if reduce {
				got, ref = item.Reductions, want.Reductions
			}
			if len(got) != len(ref) {
				t.Fatalf("%s item %d: %d values, want %d", ep, k, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s item %d: [%d] = %d, want %d", ep, k, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestBadRequests(t *testing.T) {
	x := newTestServer(t, Options{MaxN: 64, MaxM: 16})
	labels, values := refInputs(8, 4)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		kind   string
	}{
		{"unknown op", "/v1/multiprefix", req("median", "", labels, 4, values), 400, kindBadInput},
		{"unserved backend", "/v1/multiprefix", req("sum", "vector", labels, 4, values), 400, kindUnknownBack},
		{"unknown backend", "/v1/multiprefix", req("sum", "gpu", labels, 4, values), 400, kindUnknownBack},
		{"length mismatch", "/v1/multiprefix", req("sum", "", labels, 4, values[:4]), 400, kindBadInput},
		{"label out of range", "/v1/multiprefix", req("sum", "", []int{0, 9}, 4, []int64{1, 2}), 400, kindBadInput},
		{"negative label", "/v1/multiprefix", req("sum", "", []int{-1, 0}, 4, []int64{1, 2}), 400, kindBadInput},
		{"n too large", "/v1/multiprefix", req("sum", "", make([]int, 65), 4, make([]int64, 65)), 400, kindBadInput},
		{"m too large", "/v1/multiprefix", req("sum", "", labels, 17, values), 400, kindBadInput},
		{"empty batch", "/v1/multiprefix/batch", map[string]any{"op": "sum", "m": 4, "labels": labels}, 400, kindBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er errorResponse
			hr := x.post(t, tc.path, tc.body, &er)
			if hr.StatusCode != tc.status || er.Error.Kind != tc.kind {
				t.Fatalf("got %d/%q, want %d/%q (%s)", hr.StatusCode, er.Error.Kind, tc.status, tc.kind, er.Error.Message)
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(x.ts.URL+"/v1/multiprefix", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("GET rejected", func(t *testing.T) {
		resp, err := http.Get(x.ts.URL + "/v1/multiprefix")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("body too large", func(t *testing.T) {
		y := newTestServer(t, Options{MaxBody: 128})
		var er errorResponse
		hr := y.post(t, "/v1/multiprefix", req("sum", "", make([]int, 200), 4, make([]int64, 200)), &er)
		if hr.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Kind != kindTooLarge {
			t.Fatalf("got %d/%q", hr.StatusCode, er.Error.Kind)
		}
	})
}

// TestAdmissionShed fills the in-flight pool and asserts excess load
// is shed with 429 + Retry-After instead of queueing.
func TestAdmissionShed(t *testing.T) {
	x := newTestServer(t, Options{MaxInFlight: 2, RetryAfter: 3 * time.Second})
	for i := 0; i < 2; i++ {
		x.s.slots <- struct{}{}
	}
	labels, values := refInputs(8, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusTooManyRequests || er.Error.Kind != kindOverloaded {
		t.Fatalf("got %d/%q, want 429/%q", hr.StatusCode, er.Error.Kind, kindOverloaded)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if got := x.s.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
	// Freeing the pool restores service.
	<-x.s.slots
	<-x.s.slots
	var ok computeResponse
	if hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &ok); hr.StatusCode != 200 {
		t.Fatalf("after free: status %d", hr.StatusCode)
	}
}

// TestDrain asserts the lifecycle flip: once draining, readiness goes
// 503, compute is rejected typed, and liveness stays 200.
func TestDrain(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(8, 4)

	get := func(path string) int {
		resp, err := http.Get(x.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz before drain: %d", got)
	}
	x.s.Drain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz during drain: %d", got)
	}
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusServiceUnavailable || er.Error.Kind != kindDraining {
		t.Fatalf("compute during drain: %d/%q", hr.StatusCode, er.Error.Kind)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After")
	}
}

// TestDeadlineExpired drives a request whose deadline has passed
// before execution and asserts the typed 504.
func TestDeadlineExpired(t *testing.T) {
	x := newTestServer(t, Options{DefaultDeadline: time.Nanosecond})
	labels, values := refInputs(64, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusGatewayTimeout || er.Error.Kind != kindDeadline {
		t.Fatalf("got %d/%q, want 504/%q", hr.StatusCode, er.Error.Kind, kindDeadline)
	}
	if got := x.s.Stats().DeadlineExceeded; got == 0 {
		t.Fatal("deadline counter not incremented")
	}
}

// TestChaosPanicLadder arms a panic in every request's engine pass and
// asserts the degradation ladder serves the answer from the serial
// rung: 200, correct values, fallback reported, counters moving.
func TestChaosPanicLadder(t *testing.T) {
	x := newTestServer(t, Options{Backend: "chunked", ChaosPanicEvery: 1, ChaosSeed: 42})
	labels, values := refInputs(4096, 31)
	want, _ := core.Serial(core.AddInt64, values, labels, 31)
	var resp computeResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 31, values), &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if resp.Fallback != "serial" {
		t.Fatalf("fallback = %q, want serial", resp.Fallback)
	}
	for i := range want.Multi {
		if resp.Multi[i] != want.Multi[i] {
			t.Fatalf("multi[%d] = %d, want %d", i, resp.Multi[i], want.Multi[i])
		}
	}
	st := x.s.Stats()
	if st.ChaosPanics == 0 || st.EnginePanics == 0 || st.SerialFallbacks == 0 || st.SplitRounds == 0 {
		t.Fatalf("ladder counters: %+v", st)
	}
}

// TestChaosPanicNoRetry disables the serial rung and asserts the
// typed engine_panic surfaces instead of a hang or a wrong answer.
func TestChaosPanicNoRetry(t *testing.T) {
	x := newTestServer(t, Options{Backend: "chunked", ChaosPanicEvery: 1, ChaosSeed: 42, NoSerialRetry: true})
	labels, values := refInputs(4096, 31)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 31, values), &er)
	if hr.StatusCode != http.StatusInternalServerError || er.Error.Kind != kindEnginePanic {
		t.Fatalf("got %d/%q, want 500/%q", hr.StatusCode, er.Error.Kind, kindEnginePanic)
	}
}

// TestChaosCancel arms cancellation on every request and asserts the
// typed 503 with a retry hint.
func TestChaosCancel(t *testing.T) {
	x := newTestServer(t, Options{ChaosCancelEvery: 1})
	labels, values := refInputs(64, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusServiceUnavailable || er.Error.Kind != kindCanceled {
		t.Fatalf("got %d/%q, want 503/%q", hr.StatusCode, er.Error.Kind, kindCanceled)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("cancel rejection carries no Retry-After")
	}
}

// TestCoalescing fires many concurrent requests on one plan and
// asserts they (a) all answer correctly and (b) at least one fused
// round carried more than one request vector.
func TestCoalescing(t *testing.T) {
	x := newTestServer(t, Options{Backend: "serial", CoalesceWindow: 2 * time.Millisecond, BatchCap: 32, MaxInFlight: 64})
	labels, values := refInputs(2048, 13)
	want, _ := core.Serial(core.AddInt64, values, labels, 13)

	// Warm the plan cache so the burst shares one plan immediately.
	var warm computeResponse
	if hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 13, values), &warm); hr.StatusCode != 200 {
		t.Fatalf("warm status %d", hr.StatusCode)
	}

	for attempt := 0; attempt < 20; attempt++ {
		const burst = 16
		var wg sync.WaitGroup
		coalesced := make([]int, burst)
		for g := 0; g < burst; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var resp computeResponse
				hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 13, values), &resp)
				if hr.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, hr.StatusCode)
					return
				}
				for k := range want.Reductions {
					if resp.Reductions[k] != want.Reductions[k] {
						t.Errorf("goroutine %d: reductions[%d] = %d, want %d", g, k, resp.Reductions[k], want.Reductions[k])
						return
					}
				}
				coalesced[g] = resp.Coalesced
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, c := range coalesced {
			if c > 1 {
				return // observed a fused round with co-batched requests
			}
		}
	}
	t.Fatal("no request ever coalesced with another across 20 concurrent bursts")
}

// TestDeadlineClamp sends deadline_ms values up to 2^62 to every
// endpoint kind: each is clamped to MaxDeadline in milliseconds, before
// it can overflow time.Duration into an already-expired context.
func TestDeadlineClamp(t *testing.T) {
	const maxDeadline = 3 * time.Second
	x := newTestServer(t, Options{MaxDeadline: maxDeadline})
	labels, values := refInputs(64, 4)
	body := func(path string, deadlineMS int64) map[string]any {
		b := map[string]any{"op": "sum", "backend": "serial", "m": 4, "labels": labels, "deadline_ms": deadlineMS}
		if path == "/v1/query" {
			b["indices"] = []int{0, 63}
		} else {
			b["values"] = values
		}
		return b
	}
	// Bind the plan first, so no query depends on a row's update.
	if hr := x.post(t, "/v1/update", body("/v1/update", 0), nil); hr.StatusCode != http.StatusOK {
		t.Fatalf("bind: status %d", hr.StatusCode)
	}
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{1, time.Millisecond},
		{maxDeadline.Milliseconds(), maxDeadline},
		{1e13, maxDeadline},
		{1 << 62, maxDeadline},
	} {
		before := time.Now()
		ctx, cancel := x.s.requestCtx(context.Background(), tc.ms)
		after := time.Now()
		deadline, _ := ctx.Deadline()
		cancel()
		if deadline.Before(before.Add(tc.want)) || deadline.After(after.Add(tc.want)) {
			t.Errorf("deadline_ms %d: deadline %v from now, want %v", tc.ms, deadline.Sub(before), tc.want)
		}
		for _, path := range []string{"/v1/multiprefix", "/v1/update", "/v1/query"} {
			var er errorResponse
			hr := x.post(t, path, body(path, tc.ms), &er)
			// A 1 ms deadline may expire on a loaded host; only the
			// clamped ones must always answer.
			if hr.StatusCode != http.StatusOK && (tc.want == maxDeadline || er.Error.Kind != kindDeadline) {
				t.Errorf("%s deadline_ms %d: status %d %+v", path, tc.ms, hr.StatusCode, er)
			}
		}
	}
}

// blockingHook stalls every engine combine and barrier until release
// is closed, closing entered the first time the engine reaches it.
type blockingHook struct {
	entered, release chan struct{}
	once             sync.Once
}

func (h *blockingHook) Combine(string, int)                { h.block() }
func (h *blockingHook) Barrier(string, int)                { h.block() }
func (h *blockingHook) SpineTest(_ int, isSpine bool) bool { return isSpine }

func (h *blockingHook) block() {
	h.once.Do(func() { close(h.entered) })
	<-h.release
}

// TestCoalesceWithoutWindow pins the batching the default (no-wait)
// coalescer relies on: with no timer at all, vectors that queue on a
// group while its round runs all fuse into the next round.
func TestCoalesceWithoutWindow(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if s.opts.CoalesceWindow != 0 {
		t.Fatalf("default CoalesceWindow = %v, want 0 (no wait)", s.opts.CoalesceWindow)
	}
	const n, m, k = 512, 8, 5
	labels, values := refInputs(n, m)
	want, _ := core.Serial(core.AddInt64, values, labels, m)
	entry, err := s.cache.acquire("chunked", core.AddInt64, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.cache.release(entry)
	item := func(hook core.FaultHook) *pending {
		return &pending{
			src: values, dst: make([]int64, m), ctx: context.Background(), hook: hook,
			deadline: time.Now().Add(time.Minute), done: make(chan outcome, 1),
		}
	}

	hook := &blockingHook{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(hook.release) })
	defer release() // a failed test must not leave the runner blocked for Close
	first := item(hook)
	s.coal.submit(entry, true, 0, first)
	select {
	case <-hook.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first round never reached the engine")
	}
	rest := make([]*pending, k)
	for i := range rest {
		rest[i] = item(nil)
		s.coal.submit(entry, true, 0, rest[i])
	}
	release()

	check := func(name string, it *pending, coalesced int) {
		t.Helper()
		o := <-it.done
		if o.err != nil || o.coalesced != coalesced {
			t.Fatalf("%s: err %v, coalesced %d, want nil and %d", name, o.err, o.coalesced, coalesced)
		}
		for l := range want.Reductions {
			if it.dst[l] != want.Reductions[l] {
				t.Fatalf("%s: reductions[%d] = %d, want %d", name, l, it.dst[l], want.Reductions[l])
			}
		}
	}
	check("blocked round", first, 1)
	for i, it := range rest {
		check(fmt.Sprintf("queued vector %d", i), it, k)
	}
}

// TestStatsEndpoint sanity-checks the counter snapshot wire shape.
func TestStatsEndpoint(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(128, 8)
	for i := 0; i < 3; i++ {
		var resp computeResponse
		if hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 8, values), &resp); hr.StatusCode != 200 {
			t.Fatalf("status %d", hr.StatusCode)
		}
	}
	resp, err := http.Get(x.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 || st.OK < 3 || st.CacheMisses != 1 || st.CacheHits < 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDefaultBackendOverride asserts the per-request backend override
// is honored and reflected in the response.
func TestDefaultBackendOverride(t *testing.T) {
	x := newTestServer(t, Options{Backend: "serial"})
	labels, values := refInputs(256, 8)
	var resp computeResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "chunked", labels, 8, values), &resp)
	if hr.StatusCode != 200 || resp.Backend != "chunked" {
		t.Fatalf("status %d backend %q", hr.StatusCode, resp.Backend)
	}
	if x.s.cache.plans() != 1 {
		t.Fatalf("plans = %d", x.s.cache.plans())
	}
	key := fmt.Sprintf("%v", x.s.cache.lru.Front().Value.(*planEntry).key.Backend)
	if key != "chunked" {
		t.Fatalf("cached backend %q", key)
	}
}
