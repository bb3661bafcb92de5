package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"multiprefix/internal/core"
)

// record is what every run writes about itself beside its metrics: the
// host, the seed, and every automatic decision it saw, so that a run
// whose Auto pick differs from another's can be told apart instead of
// being averaged in.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Host       string `json:"host"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`

	// StreamGbps and TileBytes are the process calibration's probe.
	StreamGbps float64 `json:"stream_gbps"`
	TileBytes  int     `json:"tile_bytes"`
	// Decisions holds Auto's pick for every workload shape and the
	// incremental tier of every plan the run bound.
	Decisions map[string]string `json:"decisions"`
	// ChildDecisions are the set-up children's picks for this workload;
	// AutoFlips lists every decision that took more than one value
	// within the run.
	ChildDecisions []map[string]string `json:"child_decisions,omitempty"`
	AutoFlips      map[string][]string `json:"auto_flips,omitempty"`
	SetupSamples   []float64           `json:"setup_samples_s,omitempty"`
	Samples        int                 `json:"latency_samples,omitempty"`
	BeyondP99      int                 `json:"samples_beyond_p99,omitempty"`
	WindowS        float64             `json:"window_s,omitempty"`
	TraceOpsRatio  map[string]float64  `json:"trace_ops_ratio,omitempty"`
	Tally          string              `json:"tally"`
	FailRatio      float64             `json:"fail_ratio"`
}

func newRecord(o options) *record {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return &record{
		Workload:      o.workload,
		Seed:          o.seed,
		Trace:         o.trace,
		Host:          host,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Platform:      runtime.GOOS + "/" + runtime.GOARCH,
		Decisions:     map[string]string{},
		AutoFlips:     map[string][]string{},
		TraceOpsRatio: map[string]float64{},
	}
}

// noteDecisions merges one process's decisions, remembering every key
// that takes a second value.
func (r *record) noteDecisions(d map[string]string) {
	for k, v := range d {
		prev, ok := r.Decisions[k]
		if !ok {
			r.Decisions[k] = v
			continue
		}
		if prev != v {
			r.flip(k, prev, v)
		}
	}
}

func (r *record) flip(k string, vs ...string) {
	for _, v := range vs {
		if !slices.Contains(r.AutoFlips[k], v) {
			r.AutoFlips[k] = append(r.AutoFlips[k], v)
		}
	}
}

func (r *record) noteChild(c childResult) {
	r.ChildDecisions = append(r.ChildDecisions, c.Decisions)
	for k, v := range c.Decisions {
		if prev, ok := r.Decisions[k]; ok && prev != v {
			r.flip(k, prev, v)
		}
	}
}

// finish fills in the decisions for every workload shape and the
// calibration, then prints the record and writes it under o.out. It
// runs after set-up, so that reading the calibration never moves the
// probe out of the timed set-up.
func (r *record) finish(o options) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		for k, v := range w.decisions() {
			if _, ok := r.Decisions[k]; !ok {
				r.Decisions[k] = v
			}
		}
	}
	cal := core.DefaultCalibration()
	if cal.Probe != nil {
		r.StreamGbps = cal.Probe.StreamBps / 1e9
	}
	r.TileBytes = cal.TileBytes
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	fmt.Println("record", string(b))
	for k, vs := range r.AutoFlips {
		fmt.Printf("AUTO FLIP %s: %v within one run\n", k, vs)
		fmt.Fprintf(os.Stderr, "perfbench: AUTO FLIP %s: %v within one run\n", k, vs)
	}
	path := filepath.Join(o.out, fmt.Sprintf("record-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.MkdirAll(o.out, 0o755); err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}
