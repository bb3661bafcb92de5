package server

import (
	"container/list"
	"sync"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// planCache is the service's single-flight LRU cache of prepared
// plans. Plan construction is the expensive, label-dependent half of a
// multiprefix (validation, counting sort, chunk decomposition, team
// spawn); repeat traffic re-sends the same label vector, so the
// service builds each plan once and evaluates many requests against
// it.
//
// Three robustness properties shape the implementation:
//
//   - Single-flight: concurrent requests for the same key share one
//     construction — the first request builds while the rest wait on
//     the entry's ready latch — so a stampede of identical cold
//     requests costs one build, not N.
//   - Pinning: an entry is refcounted by the requests (and ladder
//     retries) using its plan. Eviction only marks an entry dead; the
//     plan's worker team is closed when the last pin drops, never
//     under a request still running on it.
//   - Collision honesty: the 64-bit label digest in backend.Key is a
//     lookup accelerator, not an identity. A hit re-checks the full
//     label vector; a digest collision gets a private, uncached plan
//     rather than another key's answers.
type planCache struct {
	mu      sync.Mutex
	cap     int
	workers int
	entries map[backend.Key]*planEntry
	lru     *list.List // of *planEntry, front = most recently used
	st      *stats
}

// planEntry is one cached plan, pinned by every request using it.
type planEntry struct {
	key    backend.Key
	labels []int // full construction input: guards against digest collisions
	op     core.Op[int64]
	plan   *backend.Plan[int64]
	err    error
	ready  chan struct{} // closed when plan/err are set (single-flight latch)
	refs   int
	dead   bool // evicted or errored: close plan when refs hits zero
	elem   *list.Element
}

func newPlanCache(capacity, workers int, st *stats) *planCache {
	return &planCache{
		cap:     capacity,
		workers: workers,
		entries: make(map[backend.Key]*planEntry),
		lru:     list.New(),
		st:      st,
	}
}

// acquire returns a pinned entry whose plan is built and ready. The
// caller must release it exactly once, after its last use of
// entry.plan. On error nothing is pinned.
func (c *planCache) acquire(backendName string, op core.Op[int64], labels []int, m int) (*planEntry, error) {
	key := backend.KeyFor(backendName, op.Name, labels, m)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if equalLabels(e.labels, labels) {
			e.refs++
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.st.cacheHits.Add(1)
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				err := e.err
				c.release(e)
				return nil, err
			}
			return e, nil
		}
		// Digest collision between distinct label vectors: serve a
		// correct answer from a private plan, never the cached one.
		c.mu.Unlock()
		return c.buildUncached(key, op, labels, m)
	}
	e := &planEntry{
		key:    key,
		labels: append([]int(nil), labels...),
		op:     op,
		ready:  make(chan struct{}),
		refs:   1,
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.st.cacheMisses.Add(1)
	c.evictLocked()
	c.mu.Unlock()

	plan, err := c.build(backendName, op, labels, m)
	c.mu.Lock()
	e.plan, e.err = plan, err
	if err != nil {
		// Do not cache failures: a later identical request retries the
		// build (the input may be the same, but transient conditions —
		// memory pressure — need not be).
		c.dropLocked(e)
	}
	close(e.ready)
	c.mu.Unlock()
	if err != nil {
		c.release(e)
		return nil, err
	}
	return e, nil
}

// release drops one pin. The last pin of a dead entry closes its plan.
func (c *planCache) release(e *planEntry) {
	c.mu.Lock()
	e.refs--
	var toClose *backend.Plan[int64]
	if e.dead && e.refs == 0 && e.plan != nil {
		toClose = e.plan
		e.plan = nil
	}
	c.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// closeAll empties the cache, closing every unpinned plan now and
// marking pinned ones for close on their final release.
func (c *planCache) closeAll() {
	c.mu.Lock()
	var toClose []*backend.Plan[int64]
	for _, e := range c.entries {
		c.dropLocked(e)
		if e.refs == 0 && e.plan != nil {
			toClose = append(toClose, e.plan)
			e.plan = nil
		}
	}
	c.mu.Unlock()
	for _, p := range toClose {
		p.Close()
	}
}

// plans reports the number of live cached entries.
func (c *planCache) plans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// evictLocked trims the LRU tail down to capacity, skipping pinned
// entries (the in-flight bound already limits how many plans can be
// pinned at once, so the overflow is bounded too).
func (c *planCache) evictLocked() {
	for c.lru.Len() > c.cap {
		var victim *planEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*planEntry); e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.dropLocked(victim)
		c.st.cacheEvictions.Add(1)
		// refs == 0 and we hold the lock, so nobody can pin it anymore:
		// close now. The entry is fully built (a building entry is
		// pinned by its builder).
		if victim.plan != nil {
			victim.plan.Close()
			victim.plan = nil
		}
	}
}

// dropLocked unlinks an entry from the map and LRU list and marks it
// dead. Idempotent.
func (c *planCache) dropLocked(e *planEntry) {
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	e.dead = true
}

// buildUncached serves the digest-collision path: a private plan owned
// by this request alone, closed on release.
func (c *planCache) buildUncached(key backend.Key, op core.Op[int64], labels []int, m int) (*planEntry, error) {
	c.st.cacheMisses.Add(1)
	plan, err := c.build(key.Backend, op, labels, m)
	if err != nil {
		return nil, err
	}
	e := &planEntry{
		key:    key,
		labels: append([]int(nil), labels...),
		op:     op,
		plan:   plan,
		ready:  make(chan struct{}),
		refs:   1,
		dead:   true, // release closes it
	}
	close(e.ready)
	return e, nil
}

func (c *planCache) build(backendName string, op core.Op[int64], labels []int, m int) (*backend.Plan[int64], error) {
	be, err := backend.Open[int64](backendName)
	if err != nil {
		return nil, err
	}
	return be.Plan(op, labels, m, core.Config{Workers: c.workers})
}

func equalLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
