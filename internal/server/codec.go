package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
)

// This file is the service's wire codec. Every request body is read
// once into a pooled buffer and decoded from those bytes; every
// response is written from one buffer with its Content-Length.
//
// The single-vector compute endpoints carry the big vectors, so they
// get a reflection-free fast path in both directions:
//
//   - parseCompute decodes the canonical JSON subset of a
//     computeRequest — known lowercase keys each at most once, plain
//     ASCII strings, integers of at most 19 digits that fit their
//     field, no nulls, no batch — straight into the struct, pre-sizing
//     each number list by its comma count.
//     Anything outside the subset (escapes, non-ASCII, fractions or
//     exponents, case-variant or unknown keys, duplicates, overflow,
//     syntax errors, a batch) makes it give up, and decodeCompute
//     re-decodes the same bytes with json.Unmarshal. So the fast path
//     answers only where it provably agrees with the standard library,
//     and every error text and edge case comes from encoding/json.
//   - appendCompute writes the bytes json.Encoder would, with
//     strconv.AppendInt. It writes strings unescaped, which is exact
//     only for ASCII identifiers: the op and backend names are
//     validated against the ops and serviceBackends tables before any
//     response is built, and a fallback is "serial" or empty. Batch
//     responses go through encoding/json.

// maxPooledBuf bounds the buffers the codec keeps for reuse: a rare
// huge body or reply is dropped after use, not pinned in the pool.
const maxPooledBuf = 8 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// getBuf returns an empty pooled buffer.
func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bufPool.Put(buf)
	}
}

// decodeBody reads the size-bounded request body once and decodes it
// with decode, writing the typed 413 or 400 itself on failure.
// Trailing data after the JSON value is a decode error, not ignored.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBody)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, kindTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBody))
			return false
		}
		s.writeError(w, http.StatusBadRequest, kindBadInput, "reading body: "+err.Error())
		return false
	}
	if err := decode(buf.Bytes()); err != nil {
		s.writeError(w, http.StatusBadRequest, kindBadInput, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// decodeJSON decodes a request body into v with json.Unmarshal; see
// decodeBody.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeBody(w, r, func(b []byte) error { return json.Unmarshal(b, v) })
}

// decodeCompute decodes a compute body into req: the fast path when
// the bytes lie in its subset, else json.Unmarshal on the same bytes.
func decodeCompute(b []byte, req *computeRequest) error {
	if parseCompute(b, req) {
		return nil
	}
	*req = computeRequest{}
	return json.Unmarshal(b, req)
}

// Field bits for parseCompute's duplicate-key check.
const (
	fieldOp = 1 << iota
	fieldBackend
	fieldM
	fieldLabels
	fieldValues
	fieldDeadline
	fieldPin
)

// parseCompute decodes the canonical subset of a computeRequest body
// into req and reports whether b was in that subset. On false, req
// may be partly filled and the caller must decode b another way.
func parseCompute(b []byte, req *computeRequest) bool {
	p := parser{b: b}
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return p.end()
	}
	seen := 0
	for {
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		var field int
		switch string(key) {
		case "op":
			field = fieldOp
			req.Op, ok = p.name()
		case "backend":
			field = fieldBackend
			req.Backend, ok = p.name()
		case "m":
			field = fieldM
			req.M, ok = parseInt[int](&p)
		case "labels":
			field = fieldLabels
			req.Labels, ok = parseList[int](&p)
		case "values":
			field = fieldValues
			req.Values, ok = parseList[int64](&p)
		case "deadline_ms":
			field = fieldDeadline
			req.DeadlineMS, ok = parseInt[int64](&p)
		case "pin_version":
			field = fieldPin
			req.PinVersion, ok = p.digits()
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		p.ws()
		if p.eat('}') {
			return p.end()
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

// parser is parseCompute's cursor over the body.
type parser struct {
	b []byte
	i int
}

func (p *parser) ws() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// eat consumes c if it is next.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *parser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// name consumes a string value.
func (p *parser) name() (string, bool) {
	s, ok := p.str()
	return string(s), ok
}

// digits consumes the digits of a JSON integer; see scanDigits.
func (p *parser) digits() (uint64, bool) {
	u, i, ok := scanDigits(p.b, p.i)
	p.i = i
	return u, ok
}

// scanDigits reads the digits of a JSON integer at b[i:] and returns
// their value and the index after them: a lone zero, or 1 to 19
// digits without a leading zero, which always fit in uint64. Longer
// runs are left to the fallback. A leading zero, a fraction or an
// exponent leaves a non-delimiter next, which the caller's grammar
// rejects.
func scanDigits(b []byte, i int) (uint64, int, bool) {
	if i < len(b) && b[i] == '0' {
		return 0, i + 1, true
	}
	start := i
	var v uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	n := i - start
	return v, i, n > 0 && n <= 19
}

// toInt converts a digit value and its sign to T, reporting false
// when the integer does not fit in T.
func toInt[T int | int64](u uint64, neg bool) (T, bool) {
	if u > 1<<63 || u == 1<<63 && !neg {
		return 0, false
	}
	if neg {
		u = -u
	}
	v := T(int64(u))
	return v, int64(v) == int64(u) // a 32-bit int may not hold it
}

// parseInt consumes a JSON integer that fits in T.
func parseInt[T int | int64](p *parser) (T, bool) {
	neg := p.eat('-')
	u, ok := p.digits()
	if !ok {
		return 0, false
	}
	return toInt[T](u, neg)
}

// SWAR ("SIMD within a register") constants: one byte lane each.
const (
	lanes0F = 0x0F0F0F0F0F0F0F0F
	lanes06 = 0x0606060606060606
	lanes30 = 0x3030303030303030
	lanesF0 = 0xF0F0F0F0F0F0F0F0
)

// digitRun counts the ASCII digits that open w, read little-endian
// from the body: 0 to 8. A byte is a digit when its high nibble is 3
// both before and after adding 6 (0x30-0x3F and 0x2A-0x39 meet in
// 0x30-0x39). Adding 6 carries out of a byte only at 0xFA and above,
// which is a non-digit, so a carry reaches only lanes after the first
// non-digit and never changes the count.
func digitRun(w uint64) int {
	nonDigit := (w&lanesF0 ^ lanes30) | ((w+lanes06)&lanesF0 ^ lanes30)
	return bits.TrailingZeros64(nonDigit) >> 3
}

// eightDigits returns the value of eight ASCII digits packed
// little-endian in w, most significant first; zero bytes read as
// leading zeros. Three multiplies fold the lanes pairwise: digits
// into 2-digit, then 4-digit, then the 8-digit value (Lemire's
// parse_eight_digits_unrolled, as in simdjson).
func eightDigits(w uint64) uint64 {
	w = (w & lanes0F) * (10<<8 + 1) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (w & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// parseList consumes an array of JSON integers. A flat number list
// ends at the first ']', so its commas give its length up front and
// the slice is allocated once. The size is capped by what the bytes
// can hold — k integers take at least 2k-1 bytes — so a body of bare
// commas cannot reserve more than a valid body of its length would.
//
// The element loop keeps the cursor in locals. While eight bytes
// remain after the sign, one word load reads a number of 1 to 7
// digits without a leading zero: digitRun finds its end, eightDigits
// its value, and the byte after it is tested for ',' in the same
// word. A leading zero, a run of eight or more digits and a number in
// the last eight bytes go through scanDigits and toInt, which keep the
// lone-zero, 19-digit and range rules; seven digits fit every T.
func parseList[T int | int64](p *parser) ([]T, bool) {
	if !p.eat('[') {
		return nil, false
	}
	rest := p.b[p.i:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return nil, false
	}
	n := min(bytes.Count(rest[:end], []byte{','})+1, (end+1)/2)
	p.ws()
	if p.eat(']') {
		return make([]T, 0), true
	}
	out := make([]T, 0, n)
	b, i := p.b, p.i
	for {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) {
			return nil, false
		}
		// Random signs defeat branch prediction, so a '-' is taken
		// as a step s of 0 or 1 and applied to the value as (u^-s)+s.
		s := (uint64(b[i]^'-') - 1) >> 63
		i += int(s)
		var v T
		fast := false
		if len(b)-i >= 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if k := uint(digitRun(w)); k > 0 && k < 8 && byte(w) != '0' {
				u := eightDigits(w << (64 - 8*k))
				v = T(int64((u ^ -s) + s))
				if byte(w>>(8*k)) == ',' {
					out = append(out, v)
					i += int(k) + 1
					continue
				}
				i, fast = i+int(k), true
			}
		}
		if !fast {
			u, j, ok := scanDigits(b, i)
			if !ok {
				return nil, false
			}
			if v, ok = toInt[T](u, s == 1); !ok {
				return nil, false
			}
			i = j
		}
		out = append(out, v)
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i == len(b) {
			return nil, false
		}
		switch b[i] {
		case ']':
			p.i = i + 1
			return out, true
		case ',':
			i++
		default:
			return nil, false
		}
	}
}

// appendInts writes vs as a JSON array.
func appendInts(b []byte, vs []int64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// appendCompute writes r as json.Encoder.Encode does.
func appendCompute(b []byte, r *computeResponse) []byte {
	b = append(b, `{"backend":"`...)
	b = append(b, r.Backend...)
	b = append(b, `","op":"`...)
	b = append(b, r.Op...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	if len(r.Multi) > 0 {
		b = append(b, `,"multi":`...)
		b = appendInts(b, r.Multi)
	}
	if len(r.Reductions) > 0 {
		b = append(b, `,"reductions":`...)
		b = appendInts(b, r.Reductions)
	}
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendInt(b, int64(r.Coalesced), 10)
	if r.Fallback != "" {
		b = append(b, `,"fallback":"`...)
		b = append(b, r.Fallback...)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

// writeCompute sends a 200 computeResponse.
func writeCompute(w http.ResponseWriter, r *computeResponse) {
	buf := getBuf()
	defer putBuf(buf)
	// Writing the appended bytes back grows buf to hold the next reply
	// of this size; while they fit, they already are buf's own.
	buf.Write(appendCompute(buf.AvailableBuffer(), r))
	writeBody(w, http.StatusOK, buf.Bytes())
}

// writeJSON sends v encoded by encoding/json, newline-terminated as
// json.Encoder writes it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends a complete JSON body with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A write error means the client went away; there is no one left
	// to tell.
	_, _ = w.Write(body)
}
