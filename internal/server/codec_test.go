package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// computeBody is a canonical compute request body of n elements, as
// json.Marshal writes it.
func computeBody(t testing.TB, n int) []byte {
	t.Helper()
	labels, values := refInputs(n, 17)
	b, err := json.Marshal(computeRequest{
		Op: "sum", Backend: "auto", M: 17, Labels: labels, Values: values,
		DeadlineMS: 250, PinVersion: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeSeeds are bodies at the edges of the fast parser's subset:
// bodies it must take, and bodies it must hand to json.Unmarshal.
var decodeSeeds = []struct {
	body string
	fast bool // the fast parser takes it itself
}{
	{`{"op":"sum","m":4,"labels":[0,1,2,3],"values":[1,-2,3,-4]}`, true},
	{`{"op":"max","backend":"serial","m":2,"labels":[0,1],"values":[3,4],"deadline_ms":50,"pin_version":7}`, true},
	{`{"op":"max","backend":"serial","m":2,"labels":[0,1],"batch":[[1,2],[3,4],[]],"deadline_ms":50,"pin_version":7}`, false},
	{"\n { \"op\" :\t\"sum\" ,\r\n \"m\": 2 , \"labels\" : [ 0 , 1 ] , \"values\":[ 5,6 ]  } \n", true},
	{`{}`, true},
	{`{"labels":[],"values":[]}`, true},
	{`{"labels":[],"values":[],"batch":[]}`, false},
	{`{"OP":"sum","M":2,"Labels":[0,1],"VALUES":[1,2]}`, false},
	{`{"op":"sum","extra":{"x":[1,2]},"m":1}`, false},
	{`{"op":null,"labels":null,"values":[1],"batch":[null]}`, false},
	{`{"op":"sum","op":"max","labels":[1],"labels":[2,3]}`, false},
	{`{"m":-0,"labels":[-0,0],"values":[-0]}`, true},
	{`{"m":01}`, false},
	{`{"m":1e3}`, false},
	{`{"m":1.0}`, false},
	{`{"values":[9223372036854775807,-9223372036854775808]}`, true},
	{`{"values":[9223372036854775808]}`, false},
	{`{"values":[-9223372036854775809]}`, false},
	{`{"pin_version":9999999999999999999}`, true},
	{`{"pin_version":18446744073709551615}`, false},
	{`{"pin_version":18446744073709551616}`, false},
	{`{"pin_version":-1}`, false},
	{`{"op":"s\u0075m","backend":"\"auto\""}`, false},
	{`{"op":"s` + "\xc3\xbc" + `m"}`, false},
	{`{"op":"sum","m":1}{"op":"max"}`, false},
	{`{"op":"sum","m":1} garbage`, false},
	{`{"op":"sum","m":1`, false},
	{`{"op":"sum",}`, false},
	{`{"labels":[1,]}`, false},
	{`{"labels":[1 2]}`, false},
	{`null`, false},
	{``, false},
	{`[]`, false},
	// The word-at-a-time digit scan reads up to seven digits from one
	// 8-byte load; these sit on its boundaries.
	{`{"labels":[12345678,1],"values":[-12345678,-1]}`, true},         // 8 digits: scalar run
	{`{"labels":[123456789,1],"values":[-123456789,1]}`, true},        // 9 digits
	{`{"values":[1234567890123456789,-1234567890123456789,1]}`, true}, // 19 digits
	{`{"values":[12345678901234567890,1]}`, false},                    // 20 digits
	{`{"values":[-12345678901234567890,1]}`, false},                   // 20 digits, negative
	{`{"labels":[1234567,7654321],"values":[-1234567,1]}`, true},      // 7 digits: one load
	{`{"m":3,"labels":[0,1,2],"values":[-4,5,678]}`, true},            // last digits 2 bytes from the end
	{`{"values":[1,-22,333]}` + "\n", true},                           // scalar tail
	{`{"values":[123456]}`, true},                                     // exactly 8 bytes left at the number
	{`{"values":[123/4,567890]}`, false},                              // '/' is 0x2F, just below '0'
	{`{"values":[123:4,567890]}`, false},                              // ':' is 0x3A, just above '9'
	{`{"values":[123?4,567890]}`, false},                              // '?' is 0x3F, high nibble 3
	{`{"values":[123` + "\xfa" + `4,567890]}`, false},                 // +0x06 carries out of 0xFA
	{`{"values":[1` + "\xff\xff" + `2345678901]}`, false},             // carries out of 0xFF
	{`{"values":[-]}`, false},                                         // '-' then no digit
	{`{"values":[1,-,2345678901]}`, false},                            // '-' then a comma, 8 bytes left
	{`{"values":[- 12345678]}`, false},                                // '-' then a space
	{`{"values":[--12345678]}`, false},                                // two signs
	{`{"values":[-0,12345678]}`, true},                                // '-0' then 8 more bytes
	{`{"values":[-01234567,1]}`, false},                               // leading zero after '-'
	{`{"labels":[01234567,1]}`, false},                                // leading zero, 8 bytes left
	{`{"labels":[012,3456789]}`, false},                               // leading zero in one load
	{`{"values":[-012,3456789]}`, false},                              // the same after '-'
	{`{"labels":[1234567 ,2345678 ] , "values":[ -1 , 2 ]}`, true},    // space after a 7-digit run
}

// FuzzComputeDecode checks decodeCompute against json.Unmarshal on
// arbitrary bytes: the same accept or reject and deeply equal structs
// (nil and empty slices told apart).
func FuzzComputeDecode(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed.body))
	}
	f.Add(computeBody(f, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want computeRequest
		gotErr := decodeCompute(b, &got)
		wantErr := json.Unmarshal(b, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeCompute err %v, json.Unmarshal err %v", b, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeCompute %+v, json.Unmarshal %+v", b, got, want)
		}
	})
}

// TestParseComputeFastPath pins which seeds the fast parser takes
// itself, so the compute path cannot quietly fall back to
// encoding/json for the bodies clients send.
func TestParseComputeFastPath(t *testing.T) {
	for _, seed := range decodeSeeds {
		var req computeRequest
		if got := parseCompute([]byte(seed.body), &req); got != seed.fast {
			t.Errorf("%q: fast path %v, want %v", seed.body, got, seed.fast)
		}
	}
	var req computeRequest
	if !parseCompute(computeBody(t, 1<<10), &req) {
		t.Error("canonical json.Marshal body left the fast path")
	}
}

// TestParseComputeAllocs pins a warm parseCompute to the decoded
// fields alone (op, backend, labels, values): the count does not grow
// with n.
func TestParseComputeAllocs(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 16} {
		body := computeBody(t, n)
		allocs := testing.AllocsPerRun(20, func() {
			var req computeRequest
			if !parseCompute(body, &req) {
				t.Fatal("canonical body left the fast path")
			}
		})
		if allocs != 4 {
			t.Errorf("n=%d: %v allocs per parse, want 4 (op, backend, labels, values)", n, allocs)
		}
	}
}

// TestParseListSizeBound sends a list of bare commas: parseList must
// not reserve a slot per comma before it rejects the first element,
// only what the bytes could hold as integers (one per two bytes).
func TestParseListSizeBound(t *testing.T) {
	const commas = 1 << 20
	body := []byte(`{"values":[` + strings.Repeat(",", commas) + `]}`)
	var req computeRequest
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ok := parseCompute(body, &req)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a list of bare commas took the fast path")
	}
	// 8 bytes per int64 slot for (commas+1)/2 slots, plus slack for
	// whatever else the runtime allocates meanwhile; one slot per
	// comma would be twice the bound.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*(commas+1)/2+1<<20); got > bound {
		t.Errorf("parse allocated %d bytes, want at most %d", got, bound)
	}
}

// responseShapes are the success bodies the fast writer produces.
func responseShapes() map[string]computeResponse {
	return map[string]computeResponse{
		"multiprefix": {Backend: "auto", Op: "sum", N: 3, M: 2, Multi: []int64{0, -7, 1 << 62}, Coalesced: 1},
		"multireduce": {Backend: "chunked", Op: "min", N: 3, M: 2, Reductions: []int64{-1 << 63, 5}, Coalesced: 4},
		"fallback":    {Backend: "parallel", Op: "xor", N: 1, M: 1, Multi: []int64{0}, Coalesced: 1, Fallback: "serial"},
		"n=0":         {Backend: "serial", Op: "max", N: 0, M: 0, Multi: []int64{}, Coalesced: 1},
	}
}

// encoded is what writeJSON's encoding/json path writes for v.
func encoded(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestResponseBytesMatchEncoder pins the fast writer to the exact
// bytes json.Encoder.Encode writes.
func TestResponseBytesMatchEncoder(t *testing.T) {
	// The writer lists every field by hand: a new field must reach it
	// and responseShapes before this count moves.
	if n := reflect.TypeFor[computeResponse]().NumField(); n != 8 {
		t.Errorf("computeResponse has %d fields, the fast writer knows 8", n)
	}
	for name, r := range responseShapes() {
		if got, want := string(appendCompute(nil, &r)), encoded(t, r); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		rec := httptest.NewRecorder()
		writeCompute(rec, &r)
		if body := rec.Body.String(); body != encoded(t, r) || rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%s: writeCompute sent %q with Content-Length %q", name, body, rec.Header().Get("Content-Length"))
		}
	}
}

// TestResponseWriteZeroAllocs pins a warm response write into a
// reused buffer at zero allocations.
func TestResponseWriteZeroAllocs(t *testing.T) {
	c := responseShapes()["multiprefix"]
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendCompute(buf[:0], &c) }); allocs != 0 {
		t.Errorf("appendCompute: %v allocs, want 0", allocs)
	}
}

// TestTrailingDataRejected sends a valid body followed by a second
// value or by garbage to every endpoint kind (compute, update, query):
// each answers 400 bad_input rather than acting on the first value.
func TestTrailingDataRejected(t *testing.T) {
	x := newTestServer(t, Options{})
	const ident = `"op":"sum","m":2,"labels":[0,1,0]`
	bodies := map[string]string{
		"/v1/multiprefix":       `{` + ident + `,"values":[1,2,3]}`,
		"/v1/multireduce/batch": `{` + ident + `,"batch":[[1,2,3]]}`,
		"/v1/update":            `{` + ident + `,"values":[1,2,3]}`,
		"/v1/query":             `{` + ident + `,"indices":[2]}`,
	}
	send := func(path, body string) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(x.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}
	// Bind the plan first, so a query that ignored its trailing data
	// would succeed instead of failing not_bound.
	if code, er := send("/v1/update", bodies["/v1/update"]); code != http.StatusOK {
		t.Fatalf("bind: %d %+v", code, er)
	}
	for _, path := range []string{"/v1/multiprefix", "/v1/multireduce/batch", "/v1/update", "/v1/query"} {
		body := bodies[path]
		if code, er := send(path, body+" \n\t"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: %d %+v", path, code, er)
		}
		for _, tail := range []string{`{"op":"max"}`, ` garbage`} {
			code, er := send(path, body+tail)
			if code != http.StatusBadRequest || er.Error.Kind != kindBadInput {
				t.Errorf("%s + %q: got %d/%q, want 400/%s", path, tail, code, er.Error.Kind, kindBadInput)
			}
		}
	}
}

// BenchmarkComputeCodec times one n=2^16 compute body through the
// fast parser and writer against the encoding/json path they replace.
func BenchmarkComputeCodec(b *testing.B) {
	body := computeBody(b, 1<<16)
	var req computeRequest
	if err := decodeCompute(body, &req); err != nil {
		b.Fatal(err)
	}
	resp := computeResponse{Backend: "auto", Op: "sum", N: len(req.Values), M: req.M, Multi: req.Values, Coalesced: 1}
	b.Run("decode/fast", func(b *testing.B) {
		for b.Loop() {
			var r computeRequest
			_ = decodeCompute(body, &r)
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		for b.Loop() {
			var r computeRequest
			_ = json.NewDecoder(bytes.NewReader(body)).Decode(&r)
		}
	})
	b.Run("encode/fast", func(b *testing.B) {
		var buf []byte
		for b.Loop() {
			buf = appendCompute(buf[:0], &resp)
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(&resp)
		}
	})
}

// BenchmarkParseCompute times the fast parser alone on a canonical
// body of the service benchmark's shape: n=2^16 labels below m=256
// and values in ±2^20, as json.Marshal writes them.
func BenchmarkParseCompute(b *testing.B) {
	const n, m, lim = 1 << 16, 256, 1 << 20
	rng := rand.New(rand.NewSource(1))
	req := computeRequest{Op: "sum", M: m, Labels: make([]int, n), Values: make([]int64, n)}
	for i := range req.Labels {
		req.Labels[i] = rng.Intn(m)
		req.Values[i] = rng.Int63n(2*lim+1) - lim
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		var r computeRequest
		if !parseCompute(body, &r) {
			b.Fatal("canonical body left the fast path")
		}
	}
}
