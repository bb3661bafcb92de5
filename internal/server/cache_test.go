package server

import (
	"sync"
	"testing"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

func testLabels(n, m, salt int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i*3 + salt) % m
	}
	return labels
}

// TestCacheSingleFlight launches many concurrent cold acquires of one
// key and asserts exactly one plan build happened.
func TestCacheSingleFlight(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	labels := testLabels(4096, 17, 0)

	const goroutines = 16
	var wg sync.WaitGroup
	entries := make([]*planEntry, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := c.acquire("serial", core.AddInt64, labels, 17)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			entries[g] = e
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st.cacheMisses.Load() != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", st.cacheMisses.Load())
	}
	if st.cacheHits.Load() != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.cacheHits.Load(), goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if entries[g] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", g)
		}
	}
	for _, e := range entries {
		c.release(e)
	}
	if c.plans() != 1 {
		t.Fatalf("plans = %d", c.plans())
	}
}

// TestCacheLRUEviction fills the cache beyond capacity and asserts
// the least-recently-used unpinned entry is evicted and its plan
// closed, while pinned entries survive any pressure.
func TestCacheLRUEviction(t *testing.T) {
	var st stats
	c := newPlanCache(2, 1, &st)
	defer c.closeAll()

	e0, err := c.acquire("serial", core.AddInt64, testLabels(64, 4, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e0)
	e1, err := c.acquire("serial", core.AddInt64, testLabels(64, 4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e1)
	// Third key: capacity 2, so the LRU tail (e0) must go.
	e2, err := c.acquire("serial", core.AddInt64, testLabels(64, 4, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e2)
	if c.plans() != 2 {
		t.Fatalf("plans = %d, want 2", c.plans())
	}
	if st.cacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", st.cacheEvictions.Load())
	}
	if !e0.dead || e0.plan != nil {
		t.Fatal("evicted entry not closed")
	}
	if e1.dead || e2.dead {
		t.Fatal("wrong victim: e1/e2 should survive")
	}

	// A pinned entry is never evicted: pin e1 and e2, then add keys.
	e1b, err := c.acquire("serial", core.AddInt64, testLabels(64, 4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e1b)
	for salt := 3; salt < 6; salt++ {
		e, err := c.acquire("serial", core.AddInt64, testLabels(64, 4, salt), 4)
		if err != nil {
			t.Fatal(err)
		}
		c.release(e)
	}
	if e1b.dead || e2.dead {
		t.Fatal("pinned entry was evicted")
	}
}

// TestCachePinnedSurvivesPressure overflows a capacity-1 cache while
// the overflow entry is pinned: eviction must skip it (the cache may
// exceed capacity while pins exist), the plan stays usable, and only
// after the pin drops does the next insertion evict and close it.
func TestCachePinnedSurvivesPressure(t *testing.T) {
	var st stats
	c := newPlanCache(1, 1, &st)
	defer c.closeAll()
	labels := testLabels(256, 8, 0)

	e0, err := c.acquire("serial", core.AddInt64, labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Over capacity while e0 is pinned: e0 must survive.
	e1, err := c.acquire("serial", core.AddInt64, testLabels(256, 8, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e1)
	if e0.dead {
		t.Fatal("pinned entry was evicted")
	}
	if c.plans() != 2 {
		t.Fatalf("plans = %d, want 2 (pinned overflow retained)", c.plans())
	}
	// The pinned plan still answers under pressure.
	values := make([]int64, 256)
	for i := range values {
		values[i] = int64(i)
	}
	dst := [1][]int64{make([]int64, 8)}
	src := [1][]int64{values}
	if err := e0.plan.ReduceBatch(dst[:], src[:]); err != nil {
		t.Fatalf("reduce on pinned plan under pressure: %v", err)
	}
	// Pin dropped: the next insertion trims the overflow back to
	// capacity, closing the now-unpinned entries.
	c.release(e0)
	e2, err := c.acquire("serial", core.AddInt64, testLabels(256, 8, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e2)
	if !e0.dead || e0.plan != nil {
		t.Fatal("released overflow entry not evicted and closed")
	}
	if c.plans() != 1 {
		t.Fatalf("plans = %d after trim, want 1", c.plans())
	}
}

// TestCacheDigestCollision forges a digest collision (two distinct
// label vectors under one key) and asserts the second caller gets a
// correct private plan, never the cached one.
func TestCacheDigestCollision(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	labelsA := testLabels(128, 8, 0)
	labelsB := testLabels(128, 8, 3) // different vector

	eA, err := c.acquire("serial", core.AddInt64, labelsA, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(eA)
	// Re-register A's entry under B's key: from here on, a lookup for
	// labelsB hits an entry whose stored labels differ — exactly the
	// digest-collision shape.
	keyB := backend.KeyFor("serial", core.AddInt64.Name, labelsB, 8)
	c.mu.Lock()
	c.entries[keyB] = eA
	c.mu.Unlock()

	eB, err := c.acquire("serial", core.AddInt64, labelsB, 8)
	if err != nil {
		t.Fatalf("collision acquire: %v", err)
	}
	if eB == eA {
		t.Fatal("collision served the cached plan for different labels")
	}
	if !eB.dead {
		t.Fatal("collision plan should be private (dead => closed on release)")
	}
	values := make([]int64, 128)
	for i := range values {
		values[i] = 1
	}
	dst := [1][]int64{make([]int64, 8)}
	src := [1][]int64{values}
	if err := eB.plan.ReduceBatch(dst[:], src[:]); err != nil {
		t.Fatal(err)
	}
	want, _ := core.Serial(core.AddInt64, values, labelsB, 8)
	for k := range want.Reductions {
		if dst[0][k] != want.Reductions[k] {
			t.Fatalf("collision answer wrong at %d: %d != %d", k, dst[0][k], want.Reductions[k])
		}
	}
	c.release(eB)
	if eB.plan != nil {
		t.Fatal("private collision plan not closed on release")
	}
	// Undo the forgery so closeAll doesn't double-close eA.
	c.mu.Lock()
	delete(c.entries, keyB)
	c.mu.Unlock()
}

// TestCacheBuildErrorNotCached asserts a failed build is retried by
// the next identical request instead of being served from the cache.
func TestCacheBuildErrorNotCached(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	bad := []int{0, 99} // label out of range for m=4
	if _, err := c.acquire("serial", core.AddInt64, bad, 4); err == nil {
		t.Fatal("expected build error")
	}
	if c.plans() != 0 {
		t.Fatalf("failed build cached: plans = %d", c.plans())
	}
	if _, err := c.acquire("serial", core.AddInt64, bad, 4); err == nil {
		t.Fatal("expected build error on retry")
	}
	if st.cacheMisses.Load() != 2 {
		t.Fatalf("misses = %d, want 2 (failure not cached)", st.cacheMisses.Load())
	}
}
