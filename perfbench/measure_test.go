package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	got, beyond, err := percentile(durs(1000), 0.99)
	if err != nil || got != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %d (beyond %d, err %v), want 990 with 10 beyond", got, beyond, err)
	}
	got, beyond, err = percentile(durs(1001), 0.5)
	if err != nil || got != 501 || beyond != 500 {
		t.Fatalf("p50 of 1..1001 = %d (beyond %d, err %v), want 501 with 500 beyond", got, beyond, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10, 999} {
		if _, _, err := percentile(durs(n), 0.99); err == nil {
			t.Errorf("p99 of %d samples: want an error, fewer than %d lie beyond it", n, minBeyond)
		}
	}
	if _, beyond, err := percentile(durs(2000), 0.99); err != nil || beyond != 20 {
		t.Errorf("p99 of 2000 samples: beyond %d, err %v; want 20, nil", beyond, err)
	}
	if _, _, err := percentile(durs(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestHTTPClass(t *testing.T) {
	cases := []struct {
		status int
		err    error
		want   int
	}{
		{200, nil, okOp},
		{429, nil, refused},
		{503, nil, refused},
		{400, nil, httpError},
		{500, nil, httpError},
		{0, errors.New("connection reset"), transport},
	}
	for _, c := range cases {
		if got := httpClass(c.status, c.err); got != c.want {
			t.Errorf("httpClass(%d, %v) = %d, want %d", c.status, c.err, got, c.want)
		}
	}
}

// TestFailureAccounting drives the svc_json client against a server
// that answers 429, 503, a wrong result, a right result and a dropped
// connection in turn: every outcome but the right result is a failure.
func TestFailureAccounting(t *testing.T) {
	w := &svcWorkload{}
	if err := w.gen(7, false); err != nil {
		t.Fatal(err)
	}
	good, err := marshalResponse(w.want[0].Multi, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]int64(nil), w.want[0].Multi...)
	wrong[len(wrong)-1]++
	bad, err := marshalResponse(wrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		defer func() { step++ }()
		// Read the request as the service does; an unread 1 MB body makes
		// the server drop the connection under the reply.
		io.Copy(io.Discard, r.Body)
		switch step {
		case 0:
			rw.WriteHeader(http.StatusTooManyRequests)
		case 1:
			rw.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			rw.Write(bad)
		case 3:
			rw.Write(good)
		default:
			conn, _, err := rw.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer ts.Close()
	w.base = ts.URL
	w.client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

	var tl tally
	var buf bytes.Buffer
	for range 5 {
		class, _ := w.do(&buf, 0, false, nil, 0)
		tl.add(class)
	}
	if tl.attempted != 5 || tl.failed() != 4 {
		t.Fatalf("tally %s: want 5 attempted, 4 failed", tl)
	}
	want := map[int]int{refused: 2, wrongAnswer: 1, okOp: 1, transport: 1}
	for class, n := range want {
		if tl.byClass[class] != n {
			t.Errorf("class %d counted %d times, want %d (%s)", class, tl.byClass[class], n, tl)
		}
	}
	if r := tl.failRatio(); r != 0.8 {
		t.Errorf("fail ratio %v, want 0.8", r)
	}
}

// TestServiceLoopCorrect runs the real service closed loop briefly: the
// warm-up and every request must be answered and verified.
func TestServiceLoopCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	w := &svcWorkload{}
	if err := w.gen(3, false); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res, err := w.run(0, 8, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if res.tally.attempted < 8 || res.tally.failed() != 0 {
		t.Fatalf("tally %s: want at least 8 ops, none failed", res.tally)
	}
}

func marshalResponse(multi, red []int64) ([]byte, error) {
	return json.Marshal(wireResponse{Backend: "auto", Op: "sum", N: svcN, M: svcM, Multi: multi, Reductions: red, Coalesced: 1})
}
