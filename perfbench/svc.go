package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
	"multiprefix/internal/server"
)

// svcClients is the closed loop's client count: one per CPU of the
// 2-CPU reference host, each waiting for its reply before sending on.
const svcClients = 2

// wireRequest and wireResponse mirror the service's JSON bodies; the
// replayed decode and encode run on them.
type wireRequest struct {
	Op         string    `json:"op"`
	Backend    string    `json:"backend,omitempty"`
	M          int       `json:"m"`
	Labels     []int     `json:"labels"`
	Values     []int64   `json:"values,omitempty"`
	Batch      [][]int64 `json:"batch,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	PinVersion uint64    `json:"pin_version,omitempty"`
}

type wireResponse struct {
	Backend    string  `json:"backend"`
	Op         string  `json:"op"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Multi      []int64 `json:"multi,omitempty"`
	Reductions []int64 `json:"reductions,omitempty"`
	Coalesced  int     `json:"coalesced"`
	Fallback   string  `json:"fallback,omitempty"`
}

// svcWorkload drives server.New over loopback HTTP, as mpload does:
// int64 sum at n=2^16, m=256, rotating through svcVectors label
// vectors so every request after warm-up hits the plan cache, and
// alternating /v1/multiprefix and /v1/multireduce.
type svcWorkload struct {
	labels [][]int
	values [][]int64
	bodies [][]byte
	want   []core.Result[int64]

	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	statsBefore, statsAfter server.StatsSnapshot
}

func (w *svcWorkload) gen(seed int64, _ bool) error {
	r := rng(seed, 0x5376)
	for range svcVectors {
		labels := genLabels(r, svcN, svcM)
		values := genValues(r, svcN, 1<<20)
		body, err := json.Marshal(wireRequest{Op: "sum", M: svcM, Labels: labels, Values: values})
		if err != nil {
			return err
		}
		want, err := core.Serial(core.AddInt64, values, labels, svcM)
		if err != nil {
			return err
		}
		w.labels = append(w.labels, labels)
		w.values = append(w.values, values)
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, want)
	}
	return nil
}

func (w *svcWorkload) setup() error {
	core.DefaultCalibration()
	w.srv = server.New(server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: svcClients, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	// Warm-up: one request per label vector builds every cached plan.
	var buf bytes.Buffer
	for i := range w.bodies {
		class, _ := w.do(&buf, i, i%2 == 1, nil, 0)
		if class != okOp {
			return fmt.Errorf("warm-up request %d failed (class %d)", i, class)
		}
	}
	return nil
}

func endpoint(reduce bool) string {
	if reduce {
		return "/v1/multireduce"
	}
	return "/v1/multiprefix"
}

// do sends body v to one endpoint, reads the whole reply into buf and
// checks it. It returns the outcome class and the request latency, from
// send to last body byte; checking the reply is not part of it. With tr
// set it records the request span and its client-side httptrace
// children.
func (w *svcWorkload) do(buf *bytes.Buffer, v int, reduce bool, tr *tracer, op int64) (int, time.Duration) {
	ctx := context.Background()
	var wrote, first atomic.Int64 // set from the transport's goroutines
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { first.Store(time.Now().UnixNano()) },
		})
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+endpoint(reduce), bytes.NewReader(w.bodies[v]))
	if err != nil {
		return transport, time.Since(start)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	status := 0
	buf.Reset()
	if err == nil {
		status = resp.StatusCode
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	lat := end.Sub(start)
	if tr != nil {
		id := tr.add("svc.request", op, 0, start, end)
		if wn, fn := wrote.Load(), first.Load(); wn != 0 && fn != 0 {
			wt, ft := time.Unix(0, wn), time.Unix(0, fn)
			tr.add("http.req_write", op, id, start, wt)
			tr.add("http.ttfb", op, id, wt, ft)
			tr.add("http.body_read", op, id, ft, end)
		}
	}
	class := httpClass(status, err)
	if class != okOp {
		return class, lat
	}
	if !w.check(buf.Bytes(), v, reduce) {
		class = wrongAnswer
	}
	tr.add("svc.verify", op, 0, end, time.Now())
	return class, lat
}

// check decodes a reply and compares it with the serial reference.
func (w *svcWorkload) check(body []byte, v int, reduce bool) bool {
	var got wireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	if reduce {
		return got.Multi == nil && slices.Equal(got.Reductions, w.want[v].Reductions)
	}
	return got.Reductions == nil && slices.Equal(got.Multi, w.want[v].Multi)
}

// run is the closed loop: svcClients goroutines, each sending its next
// request only after the previous reply was read and checked.
func (w *svcWorkload) run(d time.Duration, minOps int, tr *tracer) (runResult, error) {
	if tr != nil {
		s, err := w.fetchStats()
		if err != nil {
			return runResult{}, err
		}
		w.statsBefore = s
	}
	var (
		mu    sync.Mutex
		res   runResult
		opSeq atomic.Int64
		done  atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := range svcClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var lat []time.Duration
			var t tally
			for i := c; ; i++ {
				el := time.Since(start)
				if (el >= d && done.Load() >= int64(minOps)) || el >= maxWindow {
					break
				}
				op := opSeq.Add(1)
				class, l := w.do(&buf, i%svcVectors, i%2 == 1, tr, op)
				lat = append(lat, l)
				t.add(class)
				done.Add(1)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.tally.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if tr != nil {
		s, err := w.fetchStats()
		if err != nil {
			return res, err
		}
		w.statsAfter = s
	}
	return res, nil
}

func (w *svcWorkload) fetchStats() (server.StatsSnapshot, error) {
	var s server.StatsSnapshot
	resp, err := w.client.Get(w.base + "/v1/stats")
	if err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func (w *svcWorkload) layers(tr *tracer, _ float64, out metrics) error {
	write := medianDur(tr.durations("http.req_write"))
	ttfb := medianDur(tr.durations("http.ttfb"))
	read := medianDur(tr.durations("http.body_read"))
	if ttfb == 0 {
		return errors.New("svc_json: no httptrace spans recorded")
	}
	out.set("server.req_write_ms", "ms", ms(write))
	out.set("server.ttfb_ms", "ms", ms(ttfb))
	out.set("server.body_read_ms", "ms", ms(read))

	const reps = 3
	var dec []time.Duration
	for range reps {
		for _, body := range w.bodies {
			var req wireRequest
			t0 := time.Now()
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				return fmt.Errorf("replay decode: %w", err)
			}
			dec = append(dec, time.Since(t0))
		}
	}
	out.set("server.json_decode_ms", "ms", ms(medianDur(dec)))

	// The loop alternates endpoints, so the replayed encode is the mean
	// of the two response shapes' medians.
	var encMulti, encRed []time.Duration
	var buf bytes.Buffer
	for range reps {
		for v, want := range w.want {
			for _, reduce := range []bool{false, true} {
				resp := wireResponse{Backend: "auto", Op: "sum", N: svcN, M: svcM, Coalesced: 1}
				if reduce {
					resp.Reductions = want.Reductions
				} else {
					resp.Multi = want.Multi
				}
				buf.Reset()
				t0 := time.Now()
				if err := json.NewEncoder(&buf).Encode(resp); err != nil {
					return fmt.Errorf("replay encode %d: %w", v, err)
				}
				if reduce {
					encRed = append(encRed, time.Since(t0))
				} else {
					encMulti = append(encMulti, time.Since(t0))
				}
			}
		}
	}
	out.set("server.json_encode_ms", "ms", (ms(medianDur(encMulti))+ms(medianDur(encRed)))/2)

	var dig []time.Duration
	for range reps {
		for _, l := range w.labels {
			t0 := time.Now()
			backend.DigestLabels(l)
			dig = append(dig, time.Since(t0))
		}
	}
	out.set("backend.digest_ms", "ms", ms(medianDur(dig)))

	b, a := w.statsBefore, w.statsAfter
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	out.set("server.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	out.set("server.coalesced_avg", "requests", ratio(a.FusedMembers-b.FusedMembers, a.FusedRounds-b.FusedRounds))
	out.set("server.shed", "count", float64(a.Shed-b.Shed+a.QuotaShed-b.QuotaShed))
	out.set("server.errors", "count", float64(a.Errors-b.Errors))

	// Engine share: the same plan call the server makes, replayed on one
	// request's inputs, against the server's time to first byte.
	be, err := backend.Open[int64]("auto")
	if err != nil {
		return err
	}
	plan, err := be.Plan(core.AddInt64, w.labels[0], svcM, core.Config{})
	if err != nil {
		return err
	}
	defer plan.Close()
	var run, red []time.Duration
	for range 20 {
		t0 := time.Now()
		if _, err := plan.Run(w.values[0]); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := plan.Reduce(w.values[0]); err != nil {
			return err
		}
		run = append(run, t1.Sub(t0))
		red = append(red, time.Since(t1))
	}
	engine := (ms(medianDur(run)) + ms(medianDur(red))) / 2
	out.set("server.engine_share", "ratio", engine/ms(ttfb))
	return nil
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (w *svcWorkload) decisions() map[string]string {
	return map[string]string{"svc_json.auto_plan": core.AutoPlanChoice(svcN, svcM, core.Config{})}
}

func (w *svcWorkload) close() {
	if w.hs != nil {
		w.srv.Drain()
		_ = w.hs.Close() // in-flight requests are over: every client has returned
		<-w.served
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
