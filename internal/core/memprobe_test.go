package core

import (
	"testing"
)

// ladderProbe is a synthetic probe with a clean knee at 512 KiB, used
// to pin the ladder interpolation and tile derivation without running
// the real measurement.
func ladderProbe() *MemProbe {
	return &MemProbe{
		StreamBps: 10e9,
		CopyBps:   8e9,
		RandomWS:  []int{1 << 15, 1 << 17, 1 << 19, 1 << 21, 1 << 23},
		RandomNs:  []float64{2, 2, 3, 40, 80},
		TileBytes: 1 << 19,
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

// TestDeriveTileBytes pins the knee rule on the synthetic ladder (the
// last rung within a quarter of the climb is 512 KiB) and the clamps.
func TestDeriveTileBytes(t *testing.T) {
	p := ladderProbe()
	if got := deriveTileBytes(p.RandomWS, p.RandomNs); got != 1<<19 {
		t.Errorf("knee: %d, want %d", got, 1<<19)
	}
	if got := deriveTileBytes(nil, nil); got != DefaultTileBytes {
		t.Errorf("empty ladder: %d, want DefaultTileBytes", got)
	}
	// A ladder that is flat forever would pick its top rung; the clamp
	// caps the budget at probeTileMax.
	flatWS := []int{1 << 15, 1 << 25}
	flatNs := []float64{2, 2}
	if got := deriveTileBytes(flatWS, flatNs); got != probeTileMax {
		t.Errorf("flat ladder: %d, want clamp %d", got, probeTileMax)
	}
	// A cliff right after the first rung keeps only the first rung,
	// clamped up to probeTileMin.
	cliffWS := []int{1 << 15, 1 << 17}
	cliffNs := []float64{2, 200}
	if got := deriveTileBytes(cliffWS, cliffNs); got != probeTileMin {
		t.Errorf("cliff ladder: %d, want clamp %d", got, probeTileMin)
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
	if fields["serialmax"] != 123 || fields["updburst"] != 77 || fields["tilebytes"] != 262144 {
		t.Errorf("fields = %v", fields)
	}
	if _, ok := fields["junk"]; ok {
		t.Error("malformed junk=xyz should be ignored")
	}
	cal := applyAutoCalEnv(AutoCalibration{SerialMax: 1})
	if cal.SerialMax != 123 || cal.UpdateBurst != 77 || cal.TileBytes != 262144 {
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
// returns plausible, usable numbers on any host: positive bandwidths,
// a full ladder, and a tile budget inside the clamps. This is the
// library-level half of the calibrate-smoke CI check.
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
	if p.TileBytes < probeTileMin || p.TileBytes > probeTileMax {
		t.Fatalf("TileBytes %d outside [%d, %d]", p.TileBytes, probeTileMin, probeTileMax)
	}
}
