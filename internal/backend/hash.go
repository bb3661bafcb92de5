package backend

// Plan construction is O(n log n)-ish work (validation, class
// counting, chunk decomposition) over a label vector that repeat traffic
// sends unchanged; a service caches plans keyed by their full
// construction input. Key is that cache key: the cheap comparable
// part — backend and operator names, shapes, and a 64-bit label
// digest — with the label vector itself left to the cache entry for
// an equality check on hit. The digest alone is not trusted for
// identity: an adversarial client that found an FNV collision must
// get a correct answer (a second plan), never another key's plan.

// Key identifies a plan's construction input for caching. Two plans
// built from inputs with equal Keys *and* equal label vectors are
// interchangeable. Key is comparable and so usable as a map key.
//
// Key deliberately covers only the *construction* input — it is
// label-structure identity, not state identity. A plan is also a
// stateful resource (Bind/Update, see incremental.go), and mutating
// resident values must NOT move the plan to a different cache slot:
// the whole point of an incremental update is that the expensive
// label-derived structure is reused. The division of labor is
//
//   - Key: which plan serves this (backend, op, labels, m) — stable
//     across Bind and Update;
//   - Plan.Version: which state of that plan an answer corresponds to
//     — bumped by every Bind and Update, pinned and compared by the
//     service layer (and its request coalescer, which refuses to fuse
//     requests pinned to different versions).
//
// Cache eviction closes the plan and discards resident state with it;
// clients then observe ErrNotBound and must re-Bind, never a silently
// resurrected stale vector.
type Key struct {
	// Backend is the registry name the plan is opened under.
	Backend string
	// Op is the operator name (Op.Name).
	Op string
	// N is the element count, M the label-space size.
	N, M int
	// Digest is a word-wise FNV-1a hash over the label vector.
	Digest uint64
}

// KeyFor builds the cache key for a plan over (backend, op, labels, m).
func KeyFor(backendName, opName string, labels []int, m int) Key {
	return Key{
		Backend: backendName,
		Op:      opName,
		N:       len(labels),
		M:       m,
		Digest:  DigestLabels(labels),
	}
}

// DigestLabels hashes a label vector with word-wise 64-bit FNV-1a:
// each label, widened to 64 bits, is xored in whole and followed by
// one multiply, where byte-wise FNV-1a spends eight of each. Every
// step is a bijection of the state, so vectors that differ in one
// label always digest differently. Deterministic across runs and
// platforms (a label widens to the same 64 bits whatever the size of
// int). Nothing persists a digest: the warm file stores label
// vectors, and a cache hit still compares every label.
func DigestLabels(labels []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, l := range labels {
		h ^= uint64(l)
		h *= prime64
	}
	return h
}
