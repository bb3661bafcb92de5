package core

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// This file is the measured half of the Auto calibration: a one-time
// memory probe (sequential bandwidth, copy bandwidth, and a
// random-update latency ladder over growing working sets). Its ladder
// knee sets the sorted engine's per-tile cache budget (TileBytes), and
// its first-order Fenwick cost model sets the incremental plans'
// update-vs-rerun crossover (UpdateBurst). Engine selection does not
// consult it: Auto picks among serial, chunked and parallel from the
// timed crossover alone. The inputs are measured, cached per process,
// and overridable (Config.AutoCal, MP_AUTOCAL) so tests and CI pin
// them with explicit numbers.

// MemProbe is the one-time measured memory profile of the host.
type MemProbe struct {
	// StreamBps is the sequential read bandwidth (bytes/second) over a
	// working set far beyond cache.
	StreamBps float64
	// CopyBps is the large-copy bandwidth (bytes/second): the cost
	// model for buffer staging and the service layer's capacity math.
	CopyBps float64
	// RandomWS and RandomNs are the random-access ladder: RandomNs[i]
	// is the measured nanoseconds per dependent random load (a pointer
	// chase, so each step waits for the previous) within a
	// RandomWS[i]-byte working set. The model uses the ladder net of
	// its fastest rung: the cache-resident baseline is latency the
	// engines hide under their own work.
	RandomWS []int
	RandomNs []float64
	// TileBytes is the per-tile cache budget derived from the ladder:
	// half the largest working set that still updates at near-minimum
	// latency, clamped to sane bounds.
	TileBytes int
}

// probe model constants — first-order fits, not absolute predictions.
const (
	probeAlpha       = 0.5 // dependent-chain overlap factor
	probeUpdateLvlNs = 2.0 // per-tree-level fixed cost (index math + RMW), ns
	probeTileMin     = 1 << 18
	probeTileMax     = 1 << 20
	probeLadderTop   = 1 << 23 // top rung must fit the probe scratch buffer
)

// streamNs is the modeled cost of streaming b bytes.
func (p *MemProbe) streamNs(b float64) float64 {
	if p.StreamBps <= 0 {
		return 0
	}
	return b / p.StreamBps * 1e9
}

// randNetNs interpolates the measured ladder at a ws-byte working set
// (log-linear between rungs, clamped at the ends), net of the fastest
// rung — the extra latency of leaving the near cache levels.
func (p *MemProbe) randNetNs(ws int) float64 {
	if len(p.RandomWS) == 0 {
		return 0
	}
	base := p.RandomNs[0]
	for _, v := range p.RandomNs {
		if v < base {
			base = v
		}
	}
	at := func(i int) float64 { return max(p.RandomNs[i]-base, 0) }
	if ws <= p.RandomWS[0] {
		return at(0)
	}
	last := len(p.RandomWS) - 1
	if ws >= p.RandomWS[last] {
		return at(last)
	}
	i := 0
	for p.RandomWS[i+1] < ws {
		i++
	}
	lo, hi := float64(p.RandomWS[i]), float64(p.RandomWS[i+1])
	t := (math.Log2(float64(ws)) - math.Log2(lo)) / (math.Log2(hi) - math.Log2(lo))
	return at(i) + t*(at(i+1)-at(i))
}

// UpdateNs models one O(log n) Fenwick point update on an n-element
// tree: log2(n) dependent read-modify-writes scattered across the 8n-
// byte tree, each paying the (overlap-discounted) random-access
// latency of that working set plus a fixed per-level arithmetic cost.
func (p *MemProbe) UpdateNs(n int) float64 {
	if n < 2 {
		n = 2
	}
	levels := math.Log2(float64(n)) + 1
	return levels * (probeAlpha*p.randNetNs(8*n) + probeUpdateLvlNs)
}

// RebuildNs models the O(n) Fenwick rebuild: stream the resident
// values in and the tree out (16 bytes per element).
func (p *MemProbe) RebuildNs(n int) float64 {
	return float64(n) * p.streamNs(16)
}

// UpdateBurst is the measured update-vs-rerun crossover: the number
// of buffered point updates between queries beyond which one O(n)
// rebuild is cheaper than continuing to pay per-update tree walks.
// An incremental plan applies updates to its accumulator up to this
// burst, then marks the tree stale and rebuilds at the next query.
func (p *MemProbe) UpdateBurst(n int) int {
	up := p.UpdateNs(n)
	if up <= 0 {
		return fallbackUpdateBurst(n)
	}
	b := int(p.RebuildNs(n) / up)
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// fallbackUpdateBurst is the folklore crossover when no probe ran
// (MP_AUTOCAL=noprobe): a rebuild streams n elements, an update
// touches ~log2(n) cache lines, and a scattered touch costs a few
// streamed elements — n / (4·log2(n)).
func fallbackUpdateBurst(n int) int {
	if n < 2 {
		return 1
	}
	b := n / (4 * int(math.Log2(float64(n))))
	if b < 1 {
		b = 1
	}
	return b
}

// MeasureMemProbe runs the probe: a few milliseconds of timed loops,
// intended to be cached per process (see defaultMemProbe).
func MeasureMemProbe() *MemProbe {
	p := &MemProbe{}
	const streamN = 1 << 21 // 16 MiB of int64: beyond L2 on anything current
	buf := make([]int64, streamN)
	for i := range buf {
		buf[i] = int64(i)
	}
	var sink int64
	p.StreamBps = bestBps(3, streamN*8, func() {
		s := int64(0)
		for _, v := range buf {
			s += v
		}
		sink += s
	})
	dst := make([]int64, streamN)
	p.CopyBps = bestBps(3, streamN*8, func() { copy(dst, buf) })
	_ = sink

	// Random-access ladder: a pointer chase over a single-cycle random
	// permutation, so every step's address depends on the previous
	// load — each rung measures the dependent-access latency of that
	// working set, with no throughput overlap to hide it.
	sinkIdx := 0
	for ws := 1 << 15; ws <= probeLadderTop; ws <<= 2 {
		slots := ws / 8
		a := dst[:slots]
		fillChaseCycle(a)
		const steps = 1 << 17
		ns := bestNs(3, steps, func() {
			j := int64(0)
			for i := 0; i < steps; i++ {
				j = a[j]
			}
			sinkIdx += int(j)
		})
		p.RandomWS = append(p.RandomWS, ws)
		p.RandomNs = append(p.RandomNs, ns)
	}
	_ = sinkIdx
	p.TileBytes = deriveTileBytes(p.RandomWS, p.RandomNs)
	return p
}

// fillChaseCycle writes a single-cycle random permutation into a:
// following j = a[j] from 0 visits every slot (Sattolo's algorithm
// over a deterministic xorshift stream), so the chase never settles
// into a short loop.
func fillChaseCycle(a []int64) {
	for i := range a {
		a[i] = int64(i)
	}
	r := uint32(2463534242)
	for i := len(a) - 1; i > 0; i-- {
		r ^= r << 13
		r ^= r >> 17
		r ^= r << 5
		j := int(r % uint32(i))
		a[i], a[j] = a[j], a[i]
	}
}

// deriveTileBytes picks the per-tile budget from the ladder's knee:
// the largest working set whose net latency stays under a quarter of
// the worst rung's — past that the tile no longer behaves cache-
// resident — clamped to [probeTileMin, probeTileMax].
func deriveTileBytes(ws []int, ns []float64) int {
	if len(ws) == 0 {
		return DefaultTileBytes
	}
	minNs, maxNs := ns[0], ns[0]
	for _, v := range ns {
		minNs = min(minNs, v)
		maxNs = max(maxNs, v)
	}
	knee := minNs + 0.25*(maxNs-minNs)
	tile := ws[0]
	for i := range ws {
		if ns[i] <= knee {
			tile = ws[i]
		}
	}
	if tile < probeTileMin {
		tile = probeTileMin
	}
	if tile > probeTileMax {
		tile = probeTileMax
	}
	return tile
}

// bestBps times f (which moves bytes bytes) reps times and returns the
// best observed bandwidth.
func bestBps(reps, bytes int, f func()) float64 {
	best := bestOf(reps, f)
	if best <= 0 {
		return 0
	}
	return float64(bytes) / best.Seconds()
}

// bestNs times f (which performs steps operations) reps times and
// returns the best observed per-operation nanoseconds.
func bestNs(reps, steps int, f func()) float64 {
	best := bestOf(reps, f)
	return float64(best.Nanoseconds()) / float64(steps)
}

var (
	memProbeOnce sync.Once
	memProbe     *MemProbe
)

// defaultMemProbe returns the process-wide measured probe, running it
// on first use. MP_AUTOCAL=noprobe (alone or among other settings)
// disables the measurement entirely — the CI determinism escape hatch
// — in which case it returns nil and callers fall back to the pinned
// folklore fields.
func defaultMemProbe() *MemProbe {
	memProbeOnce.Do(func() {
		if _, noProbe := parseAutoCalEnv(); noProbe {
			return
		}
		memProbe = MeasureMemProbe()
	})
	return memProbe
}

// parseAutoCalEnv parses MP_AUTOCAL: a comma-separated list of
// "noprobe", "serialmax=N", "tilebytes=N", "updburst=N". Returns the
// field overrides (applied by calibrate on top of its defaults) and
// whether the probe is disabled. Malformed entries are ignored — a
// broken override must not take the library down.
func parseAutoCalEnv() (map[string]int, bool) {
	env := os.Getenv("MP_AUTOCAL")
	if env == "" {
		return nil, false
	}
	fields := make(map[string]int)
	noProbe := false
	for _, part := range strings.Split(env, ",") {
		part = strings.TrimSpace(part)
		if part == "noprobe" {
			noProbe = true
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			continue
		}
		fields[strings.TrimSpace(strings.ToLower(k))] = n
	}
	return fields, noProbe
}

// applyAutoCalEnv overlays MP_AUTOCAL field overrides on a measured
// calibration.
func applyAutoCalEnv(cal AutoCalibration) AutoCalibration {
	fields, _ := parseAutoCalEnv()
	if v, ok := fields["serialmax"]; ok {
		cal.SerialMax = v
	}
	if v, ok := fields["tilebytes"]; ok {
		cal.TileBytes = v
	}
	if v, ok := fields["updburst"]; ok {
		cal.UpdateBurst = v
	}
	return cal
}
