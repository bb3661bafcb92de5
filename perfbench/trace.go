package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's own code around a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int64  `json:"op"`     // the op (request, call, transaction) it belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// reserve allocates an id for a parent span whose end is not known yet;
// finish fills it in. Children may reference the id in between.
func (t *tracer) reserve(name string, op int64, start time.Time) int {
	return t.add(name, op, 0, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.epoch))
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return self
}

// covered measures the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	total, end := int64(0), lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// spanSummary is the per-name aggregate written beside the raw spans.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	MedianMS  float64 `json:"median_ms"`
	SelfMedMS float64 `json:"self_median_ms"`
	SelfShare float64 `json:"self_share"` // summed self time / summed duration
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	type agg struct {
		durs, selfs []float64
		sumD, sumS  float64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		d, sf := float64(s.dur()), float64(self[s.ID])
		a.durs = append(a.durs, d)
		a.selfs = append(a.selfs, sf)
		a.sumD += d
		a.sumS += sf
	}
	slices.Sort(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		a := by[n]
		share := 0.0
		if a.sumD > 0 {
			share = a.sumS / a.sumD
		}
		out = append(out, spanSummary{Name: n, Count: len(a.durs),
			MedianMS: median(a.durs) / 1e6, SelfMedMS: median(a.selfs) / 1e6, SelfShare: share})
	}
	return out
}

// write stores the spans and their per-name summary as JSON at path.
func (t *tracer) write(path string, meta any) ([]spanSummary, error) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	sum := summarize(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return sum, err
	}
	b, err := json.Marshal(struct {
		Meta    any           `json:"meta"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{meta, sum, spans})
	if err != nil {
		return sum, err
	}
	return sum, os.WriteFile(path, b, 0o644)
}
