package core

import (
	"math/rand"
	"testing"
)

// TestTiledKernelZeroAllocs pins the warm steady state of the tiled
// sorted kernel at zero heap allocations — the dynamic half of the
// //mp:hotpath contract for SortedTiledScanLabels. All plan-shaped
// storage (permutation, run bounds, tile segments) is built once
// outside the measured region, exactly as a backend Plan holds it.
func TestTiledKernelZeroAllocs(t *testing.T) {
	const n, m = 1 << 13, 128
	rng := rand.New(rand.NewSource(47))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	perm := make([]int32, n)
	start := make([]int32, m+1)
	BuildSortedIndexInto(perm, start, labels)
	window := TileWindow(n, 1<<12) // 256-element window: many tiles
	if window == 0 {
		t.Fatalf("no tile window at n=%d", n)
	}
	multi := make([]int64, n)
	red := make([]int64, m)

	serialTiles := BuildTileSegs(perm, start, window)
	for _, op := range []Op[int64]{AddInt64, MaxInt64} {
		scan := func() {
			if !SortedTiledScanLabels(op, op.Fast, values, perm, start, multi, red, &serialTiles, nil) {
				t.Fatal("tiled scan stopped unexpectedly")
			}
		}
		scan() // warm: nothing to build, but keep the shape of the plan tests
		if allocs := testing.AllocsPerRun(5, scan); allocs != 0 {
			t.Errorf("%s: SortedTiledScanLabels %.1f allocs/run, want 0", op.Name, allocs)
		}
	}
}
