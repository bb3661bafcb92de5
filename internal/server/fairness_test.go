package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// postAs is post with a client identity header.
func (x *testServer) postAs(t *testing.T, client, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, x.ts.URL+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(clientIDHeader, client)
	resp, err := http.DefaultClient.Do(hreq)
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

// TestClientQuota: with the per-client quota armed, one client's burst
// runs dry and is shed with 429 + Retry-After + the typed client_quota
// kind, while a different client id keeps being served — per-client
// fairness, not global shedding.
func TestClientQuota(t *testing.T) {
	x := newTestServer(t, Options{
		ClientRPS:   0.001, // effectively no refill within the test
		ClientBurst: 2,
	})
	labels, values := refInputs(64, 4)
	body := req("sum", "", labels, 4, values)

	for i := 0; i < 2; i++ {
		resp := x.postAs(t, "alice", "/v1/multiprefix", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alice request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	var eresp errorResponse
	resp := x.postAs(t, "alice", "/v1/multiprefix", body, &eresp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if eresp.Error.Kind != kindQuota {
		t.Fatalf("over-quota kind = %q, want %q", eresp.Error.Kind, kindQuota)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-quota response missing Retry-After")
	}

	// A different client is unaffected by alice's empty bucket.
	resp = x.postAs(t, "bob", "/v1/multiprefix", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob status = %d, want 200", resp.StatusCode)
	}

	if got := x.s.Stats().QuotaShed; got != 1 {
		t.Fatalf("QuotaShed = %d, want 1", got)
	}
	// The quota shed is distinct from global overload shedding.
	if got := x.s.Stats().Shed; got != 0 {
		t.Fatalf("Shed = %d, want 0", got)
	}
}

// TestClientQuotaRefill: tokens come back at ClientRPS, so a client
// shed at one instant is served again after the refill interval.
func TestClientQuotaRefill(t *testing.T) {
	l := newClientLimiter(10, 1) // one token, 10/s refill
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	if !l.allow("c") {
		t.Fatal("first request should pass on the initial burst")
	}
	if l.allow("c") {
		t.Fatal("second immediate request should be shed")
	}
	now = now.Add(150 * time.Millisecond) // 1.5 tokens refilled, capped at 1
	if !l.allow("c") {
		t.Fatal("request after refill should pass")
	}
	if l.allow("c") {
		t.Fatal("burst capacity must cap the refill")
	}
}

// TestClientQuotaDisabled: the default configuration carries no
// limiter and identical rapid-fire traffic from one client is served.
func TestClientQuotaDisabled(t *testing.T) {
	x := newTestServer(t, Options{})
	if x.s.limiter != nil {
		t.Fatal("limiter armed without ClientRPS")
	}
	labels, values := refInputs(64, 4)
	body := req("sum", "", labels, 4, values)
	for i := 0; i < 10; i++ {
		resp := x.postAs(t, "alice", "/v1/multiprefix", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
}

// TestClientQuotaSweep: at the client cap, idle (fully refilled)
// buckets are swept so new identities are still tracked; when every
// bucket is active the limiter degrades open instead of collapsing
// distinct clients into shared buckets.
func TestClientQuotaSweep(t *testing.T) {
	l := newClientLimiter(1, 5)
	now := time.Unix(2000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxQuotaClients; i++ {
		l.allow(string(rune('a')) + string(rune(i)))
	}
	if len(l.buckets) != maxQuotaClients {
		t.Fatalf("bucket count = %d, want %d", len(l.buckets), maxQuotaClients)
	}
	// Everyone refills to full after 10s; the next new identity sweeps
	// them all out and gets a fresh tracked bucket.
	now = now.Add(10 * time.Second)
	if !l.allow("fresh") {
		t.Fatal("fresh client should be admitted")
	}
	if len(l.buckets) != 1 {
		t.Fatalf("after sweep bucket count = %d, want 1", len(l.buckets))
	}
}

// TestShardedNotServed: the retired sharded backend is an unknown
// name — 400 unknown_backend — and the error lists exactly the served
// backends, in sorted order.
func TestShardedNotServed(t *testing.T) {
	checkNotServed(t, "sharded")
}

// TestSortedNotServed: so is the retired sort-scan backend.
func TestSortedNotServed(t *testing.T) {
	checkNotServed(t, "sorted")
}

// checkNotServed asserts that a compute request naming backend answers
// 400 unknown_backend, and that ServedBackends and the error message
// list exactly auto, chunked, parallel, serial and spinetree.
func checkNotServed(t *testing.T, backend string) {
	t.Helper()
	x := newTestServer(t, Options{})
	labels, values := refInputs(500, 9)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", backend, labels, 9, values), &er)
	if hr.StatusCode != http.StatusBadRequest || er.Error.Kind != kindUnknownBack {
		t.Fatalf("%s compute = %d/%q, want 400/%q", backend, hr.StatusCode, er.Error.Kind, kindUnknownBack)
	}
	served := []string{"auto", "chunked", "parallel", "serial", "spinetree"}
	if got := ServedBackends(); !slices.Equal(got, served) {
		t.Fatalf("ServedBackends() = %v, want %v", got, served)
	}
	_, listed, ok := strings.Cut(er.Error.Message, "want one of: ")
	if !ok || strings.TrimSuffix(listed, ")") != strings.Join(served, ", ") {
		t.Fatalf("message %q does not list exactly %v", er.Error.Message, served)
	}
}
