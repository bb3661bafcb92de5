package core

import (
	"testing"
)

// ladderProbe is a synthetic probe with a clean knee at 512 KiB, used
// to pin the ladder interpolation without running the real
// measurement.
func ladderProbe() *MemProbe {
	return &MemProbe{
		StreamBps: 10e9,
		CopyBps:   8e9,
		RandomWS:  []int{1 << 15, 1 << 17, 1 << 19, 1 << 21, 1 << 23},
		RandomNs:  []float64{2, 2, 3, 40, 80},
	}
}

// TestRandNetNs pins the ladder interpolation: net of the fastest
// rung, clamped at both ends, log-linear between rungs, monotone
// non-decreasing in the working set.
func TestRandNetNs(t *testing.T) {
	p := ladderProbe()
	if got := p.randNetNs(1); got != 0 {
		t.Errorf("below ladder: %v, want 0 (clamped to fastest rung)", got)
	}
	if got := p.randNetNs(1 << 30); got != 78 {
		t.Errorf("above ladder: %v, want 78 (top rung net of base)", got)
	}
	if got := p.randNetNs(1 << 15); got != 0 {
		t.Errorf("first rung: %v, want 0", got)
	}
	if got := p.randNetNs(1 << 21); got != 38 {
		t.Errorf("exact rung: %v, want 38 (40 net of base 2)", got)
	}
	// Log-linear midpoint of the 2^19..2^21 span (net 1 -> 38).
	if got := p.randNetNs(1 << 20); got != 1+0.5*(38-1) {
		t.Errorf("midpoint: %v, want %v", got, 1+0.5*(38-1))
	}
	prev := -1.0
	for ws := 1 << 14; ws <= 1<<24; ws <<= 1 {
		if got := p.randNetNs(ws); got < prev {
			t.Fatalf("ladder not monotone at ws=%d: %v < %v", ws, got, prev)
		} else {
			prev = got
		}
	}
}

// TestDeriveTileBytes pins the retirement of the tile budget the
// probe used to derive for the cache-tiled sort-scan kernels: the
// process calibration reports TileBytes 0, and an MP_AUTOCAL
// tilebytes entry is ignored like any unknown key.
func TestDeriveTileBytes(t *testing.T) {
	if got := DefaultCalibration().TileBytes; got != 0 {
		t.Errorf("DefaultCalibration().TileBytes = %d, want 0", got)
	}
	t.Setenv("MP_AUTOCAL", "tilebytes=262144")
	if cal := applyAutoCalEnv(AutoCalibration{SerialMax: 1}); cal != (AutoCalibration{SerialMax: 1}) {
		t.Errorf("tilebytes override changed the calibration: %+v", cal)
	}
}

// TestParseAutoCalEnv pins the MP_AUTOCAL grammar: field overrides,
// noprobe, whitespace tolerance, and that malformed entries are
// ignored rather than fatal.
func TestParseAutoCalEnv(t *testing.T) {
	t.Setenv("MP_AUTOCAL", " noprobe , serialmax=123, UpdBurst=77 ,tilebytes=262144, bogus, junk=xyz ")
	fields, noProbe := parseAutoCalEnv()
	if !noProbe {
		t.Error("noprobe not recognized")
	}
	if fields["serialmax"] != 123 || fields["updburst"] != 77 {
		t.Errorf("fields = %v", fields)
	}
	if _, ok := fields["junk"]; ok {
		t.Error("malformed junk=xyz should be ignored")
	}
	cal := applyAutoCalEnv(AutoCalibration{SerialMax: 1})
	if cal.SerialMax != 123 || cal.UpdateBurst != 77 || cal.TileBytes != 0 {
		t.Errorf("applyAutoCalEnv = %+v", cal)
	}

	t.Setenv("MP_AUTOCAL", "")
	fields, noProbe = parseAutoCalEnv()
	if fields != nil || noProbe {
		t.Errorf("empty env: fields=%v noProbe=%v", fields, noProbe)
	}
}

// TestFillChaseCycle: the pointer-chase permutation must be a single
// cycle — following j = a[j] from 0 visits every slot exactly once —
// or the ladder would measure a short hot loop instead of the full
// working set.
func TestFillChaseCycle(t *testing.T) {
	a := make([]int64, 1<<10)
	fillChaseCycle(a)
	seen := make([]bool, len(a))
	j := int64(0)
	for range a {
		if seen[j] {
			t.Fatalf("cycle shorter than the slice: revisited %d", j)
		}
		seen[j] = true
		j = a[j]
	}
	if j != 0 {
		t.Fatalf("walk did not return to start: at %d", j)
	}
}

// TestMeasureMemProbeSane runs the real measurement once and checks it
// returns plausible, usable numbers on any host: positive bandwidths
// and a full ladder. This is the library-level half of the
// calibrate-smoke CI check.
func TestMeasureMemProbeSane(t *testing.T) {
	if testing.Short() {
		t.Skip("real measurement; skipped in -short")
	}
	p := MeasureMemProbe()
	if p.StreamBps <= 0 || p.CopyBps <= 0 {
		t.Fatalf("non-positive bandwidth: stream=%v copy=%v", p.StreamBps, p.CopyBps)
	}
	if len(p.RandomWS) == 0 || len(p.RandomWS) != len(p.RandomNs) {
		t.Fatalf("bad ladder: %d ws, %d ns", len(p.RandomWS), len(p.RandomNs))
	}
	for i, ns := range p.RandomNs {
		if ns <= 0 {
			t.Fatalf("rung %d: %v ns, want > 0", i, ns)
		}
	}
}
